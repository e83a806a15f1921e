// Package bench is the reproducible performance harness behind the
// `buspower bench` subcommand. It micro-benchmarks the hot kernels of the
// simulate→encode→measure pipeline with its own explicit-budget driver
// (taking the fastest of three repetitions per kernel), times end-to-end
// experiment regenerations (quick-scale cache phases plus a full-scale
// cold/warm pass), derives the suite-level evaluation throughput in
// trace-cycle × grid-cell units, and writes a machine-readable JSON
// report (results/BENCH_*.json). Passing a previous report as the
// baseline embeds its numbers and the computed speedups in the new
// report, so kernel and throughput regressions across PRs show up as a
// diff in one committed file.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// KernelResult is one micro-benchmark measurement.
type KernelResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// BaselineNsPerOp and Speedup are filled when a baseline report
	// contains a kernel of the same name; Speedup > 1 means this run is
	// faster than the baseline.
	BaselineNsPerOp float64 `json:"baseline_ns_per_op,omitempty"`
	Speedup         float64 `json:"speedup,omitempty"`
}

// E2EResult times full `-exp all` regenerations through the parallel
// engine. The quick-scale phases isolate the caches: a cold and a warm
// workload trace cache, the evaluation-result memo cleared and kept, and
// — when the disk trace cache is exercised — a cold and a warm
// persistent cache directory (memory cache emptied both times, so the
// disk-warm number is what a fresh process with a populated cache dir
// pays). The full-scale phase (skipped in quick harness runs) times the
// paper-scale regeneration cold (no caches at all — CPU simulation
// included) and warm (traces in memory, every evaluation recomputed).
//
// The MCyclesPerSec figures are the suite-level evaluation throughput:
// millions of (trace cycle × grid cell) units delivered per wall-clock
// second during the corresponding warm pass, from the
// coding.EvaluatedCycles counter. Warm passes clear the result memo, so
// the figure measures real evaluation work, not cache hits; it is the
// one number that improves when the grid engine fans more cells out of a
// single trace pass.
type E2EResult struct {
	IDs    string  `json:"ids"`
	Config string  `json:"config"`
	Jobs   int     `json:"jobs"`
	Tables int     `json:"tables"`
	ColdMS float64 `json:"cold_ms"`
	WarmMS float64 `json:"warm_ms"`

	// WarmMCyclesPerSec is the suite throughput of the quick warm pass.
	WarmMCyclesPerSec float64 `json:"warm_mcycles_per_sec,omitempty"`

	// MemoColdMS repeats the warm run with the evaluation-result memo
	// cleared (isolating the recompute the memo avoids); MemoWarmMS runs
	// once more with every Result memoized.
	MemoColdMS float64 `json:"memo_cold_ms,omitempty"`
	MemoWarmMS float64 `json:"memo_warm_ms,omitempty"`

	DiskColdMS float64 `json:"disk_cold_ms,omitempty"`
	DiskWarmMS float64 `json:"disk_warm_ms,omitempty"`

	// Full-scale phase (paper axes, full trace lengths).
	FullColdMS            float64 `json:"full_cold_ms,omitempty"`
	FullWarmMS            float64 `json:"full_warm_ms,omitempty"`
	FullWarmMCyclesPerSec float64 `json:"full_warm_mcycles_per_sec,omitempty"`

	BaselineColdMS            float64 `json:"baseline_cold_ms,omitempty"`
	BaselineWarmMS            float64 `json:"baseline_warm_ms,omitempty"`
	BaselineMemoWarmMS        float64 `json:"baseline_memo_warm_ms,omitempty"`
	BaselineDiskWarmMS        float64 `json:"baseline_disk_warm_ms,omitempty"`
	BaselineFullColdMS        float64 `json:"baseline_full_cold_ms,omitempty"`
	BaselineFullWarmMS        float64 `json:"baseline_full_warm_ms,omitempty"`
	BaselineWarmMCyclesPerSec float64 `json:"baseline_warm_mcycles_per_sec,omitempty"`
	ColdSpeedup               float64 `json:"cold_speedup,omitempty"`
	WarmSpeedup               float64 `json:"warm_speedup,omitempty"`
	MemoWarmSpeedup           float64 `json:"memo_warm_speedup,omitempty"`
	DiskWarmSpeedup           float64 `json:"disk_warm_speedup,omitempty"`
	FullColdSpeedup           float64 `json:"full_cold_speedup,omitempty"`
	FullWarmSpeedup           float64 `json:"full_warm_speedup,omitempty"`
	// ThroughputRatio compares quick warm suite throughput against the
	// baseline's: > 1 means more evaluation work per second than before.
	ThroughputRatio float64 `json:"throughput_ratio,omitempty"`
}

// Report is the full harness output.
type Report struct {
	Schema     int    `json:"schema"`
	Created    string `json:"created"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CPUModel is the host CPU's model string (best effort; empty when
	// the platform doesn't expose one). Speedups between reports from
	// different CPU models measure the machines, not the code.
	CPUModel string `json:"cpu_model,omitempty"`
	Quick    bool   `json:"quick"`
	// Note is free-form context recorded with the run — why it was
	// taken, what the numbers should be read against.
	Note string `json:"note,omitempty"`

	Kernels []KernelResult `json:"kernels"`
	E2E     *E2EResult     `json:"e2e,omitempty"`

	// BaselineCreated is the timestamp of the report the speedups were
	// computed against, when one was supplied; BaselineNumCPU and
	// BaselineCPUModel flag cross-machine comparisons.
	BaselineCreated  string `json:"baseline_created,omitempty"`
	BaselineNumCPU   int    `json:"baseline_num_cpu,omitempty"`
	BaselineCPUModel string `json:"baseline_cpu_model,omitempty"`
}

// cpuModel reads the host CPU model string where the OS exposes one.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

// kernelReps is how many times each kernel benchmark runs; the report
// keeps the fastest (see Run).
const kernelReps = 3

// Options tunes a harness run.
type Options struct {
	// Quick trims the per-kernel time budget and skips the full-scale
	// E2E phase; pair with CI smoke jobs.
	Quick bool
	// BenchTime overrides the per-kernel time budget (0 = 500ms, or
	// 30ms when Quick). It replaces the test.benchtime global flag the
	// harness once set through the flag registry.
	BenchTime time.Duration
	// SkipE2E skips the end-to-end experiment timings.
	SkipE2E bool
	// Baseline, when non-nil, is a previous Report to compare against.
	Baseline *Report
	// Note is free-form context copied into the report.
	Note string
	// Progress, when non-nil, receives one line per finished measurement.
	Progress func(string)
}

// benchTime resolves the per-kernel budget.
func (o Options) benchTime() time.Duration {
	if o.BenchTime > 0 {
		return o.BenchTime
	}
	if o.Quick {
		return 30 * time.Millisecond
	}
	return 500 * time.Millisecond
}

// Run executes every kernel benchmark plus the end-to-end timing and
// assembles the report.
func Run(opts Options) (*Report, error) {
	r := &Report{
		Schema:     2,
		Created:    time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Quick:      opts.Quick,
		Note:       opts.Note,
	}
	budget := opts.benchTime()
	for _, k := range Kernels() {
		// Each kernel runs kernelReps times and reports the fastest — the
		// classical minimum estimator: a kernel's true cost is its floor,
		// and anything above it is scheduler or frequency noise. runN
		// flushes the previous run's garbage before starting the clock,
		// so the container and trace kernels' multi-MB live sets don't
		// bleed GC time into the allocation-free kernels that follow.
		best, err := runBenchmark(k.Fn, budget)
		if err != nil {
			return nil, err
		}
		for rep := 1; rep < kernelReps; rep++ {
			b, err := runBenchmark(k.Fn, budget)
			if err != nil {
				return nil, err
			}
			if b.nsPerOp() < best.nsPerOp() {
				best = b
			}
		}
		kr := KernelResult{
			Name:        k.Name,
			Iterations:  best.N,
			NsPerOp:     best.nsPerOp(),
			BytesPerOp:  int64(best.netBytes) / int64(best.N),
			AllocsPerOp: int64(best.netAllocs) / int64(best.N),
		}
		r.Kernels = append(r.Kernels, kr)
		if opts.Progress != nil {
			opts.Progress(fmt.Sprintf("%-32s %12.1f ns/op %8d allocs/op", kr.Name, kr.NsPerOp, kr.AllocsPerOp))
		}
	}
	if !opts.SkipE2E {
		e2e, err := runE2E(!opts.Quick)
		if err != nil {
			return nil, err
		}
		r.E2E = e2e
		if opts.Progress != nil {
			opts.Progress(fmt.Sprintf("%-32s %12.1f ms cold %10.1f ms warm", "E2E/"+e2e.IDs+"-"+e2e.Config, e2e.ColdMS, e2e.WarmMS))
			if e2e.WarmMCyclesPerSec > 0 {
				opts.Progress(fmt.Sprintf("%-32s %12.1f Mcycles/s warm", "E2E/suite-throughput", e2e.WarmMCyclesPerSec))
			}
			if e2e.MemoWarmMS > 0 {
				opts.Progress(fmt.Sprintf("%-32s %12.1f ms cold %10.1f ms warm", "E2E/eval-memo", e2e.MemoColdMS, e2e.MemoWarmMS))
			}
			if e2e.DiskWarmMS > 0 {
				opts.Progress(fmt.Sprintf("%-32s %12.1f ms cold %10.1f ms warm", "E2E/disk-cache", e2e.DiskColdMS, e2e.DiskWarmMS))
			}
			if e2e.FullColdMS > 0 {
				opts.Progress(fmt.Sprintf("%-32s %12.1f ms cold %10.1f ms warm (%.1f Mcycles/s)", "E2E/full-scale", e2e.FullColdMS, e2e.FullWarmMS, e2e.FullWarmMCyclesPerSec))
			}
		}
	}
	if opts.Baseline != nil {
		r.compare(opts.Baseline)
	}
	return r, nil
}

// compare fills baseline numbers and speedups from a previous report.
func (r *Report) compare(base *Report) {
	r.BaselineCreated = base.Created
	r.BaselineNumCPU = base.NumCPU
	r.BaselineCPUModel = base.CPUModel
	prev := make(map[string]KernelResult, len(base.Kernels))
	for _, k := range base.Kernels {
		prev[k.Name] = k
	}
	for i := range r.Kernels {
		b, ok := prev[r.Kernels[i].Name]
		if !ok || b.NsPerOp <= 0 || r.Kernels[i].NsPerOp <= 0 {
			continue
		}
		r.Kernels[i].BaselineNsPerOp = b.NsPerOp
		r.Kernels[i].Speedup = b.NsPerOp / r.Kernels[i].NsPerOp
	}
	if r.E2E != nil && base.E2E != nil {
		if base.E2E.ColdMS > 0 && r.E2E.ColdMS > 0 {
			r.E2E.BaselineColdMS = base.E2E.ColdMS
			r.E2E.ColdSpeedup = base.E2E.ColdMS / r.E2E.ColdMS
		}
		if base.E2E.WarmMS > 0 && r.E2E.WarmMS > 0 {
			r.E2E.BaselineWarmMS = base.E2E.WarmMS
			r.E2E.WarmSpeedup = base.E2E.WarmMS / r.E2E.WarmMS
		}
		if base.E2E.MemoWarmMS > 0 && r.E2E.MemoWarmMS > 0 {
			r.E2E.BaselineMemoWarmMS = base.E2E.MemoWarmMS
			r.E2E.MemoWarmSpeedup = base.E2E.MemoWarmMS / r.E2E.MemoWarmMS
		}
		if base.E2E.DiskWarmMS > 0 && r.E2E.DiskWarmMS > 0 {
			r.E2E.BaselineDiskWarmMS = base.E2E.DiskWarmMS
			r.E2E.DiskWarmSpeedup = base.E2E.DiskWarmMS / r.E2E.DiskWarmMS
		}
		if base.E2E.FullColdMS > 0 && r.E2E.FullColdMS > 0 {
			r.E2E.BaselineFullColdMS = base.E2E.FullColdMS
			r.E2E.FullColdSpeedup = base.E2E.FullColdMS / r.E2E.FullColdMS
		}
		if base.E2E.FullWarmMS > 0 && r.E2E.FullWarmMS > 0 {
			r.E2E.BaselineFullWarmMS = base.E2E.FullWarmMS
			r.E2E.FullWarmSpeedup = base.E2E.FullWarmMS / r.E2E.FullWarmMS
		}
		if base.E2E.WarmMCyclesPerSec > 0 && r.E2E.WarmMCyclesPerSec > 0 {
			r.E2E.BaselineWarmMCyclesPerSec = base.E2E.WarmMCyclesPerSec
			r.E2E.ThroughputRatio = r.E2E.WarmMCyclesPerSec / base.E2E.WarmMCyclesPerSec
		}
	}
}

// MarshalIndent renders the report as indented JSON.
func (r *Report) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// WriteFile marshals the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := r.MarshalIndent()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a report written by WriteFile.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: bad report %s: %w", path, err)
	}
	return &r, nil
}
