package main

import (
	"bufio"
	"fmt"
	"strings"
	"time"
)

// cpuLayers are the buckets of the cpu_share.<layer> metrics, in print
// order. They are named after the repository's modules; json and sha256
// are called out because the serving path spends a measured share there.
var cpuLayers = []string{"cpu", "trace", "coding", "bus", "energy", "experiments", "serve", "json", "sha256", "gc", "other"}

// packageLayers maps import paths to layers. Packages not listed here are
// standard-library helpers (io, os, syscall, sort, bytes, ...) and pass a
// sample on to their caller; see layerOfStack.
var packageLayers = map[string]string{
	"buspower/internal/cpu":          "cpu",
	"buspower/internal/workload":     "cpu",
	"buspower/internal/trace":        "trace",
	"buspower/internal/coding":       "coding",
	"buspower/internal/bus":          "bus",
	"buspower/internal/energy":       "energy",
	"buspower/internal/circuit":      "energy",
	"buspower/internal/wire":         "energy",
	"buspower/internal/experiments":  "experiments",
	"buspower/internal/report":       "experiments",
	"buspower/internal/serve":        "serve",
	"buspower/internal/cluster":      "serve",
	"buspower/internal/jobs":         "serve",
	"encoding/json":                  "json",
	"crypto/sha256":                  "sha256",
	"crypto/internal/fips140/sha256": "sha256",
	"main":                           "other",
}

// packageOf extracts the import path from a symbolized function name
// such as "buspower/internal/coding.(*Window).Encode" or
// "runtime.mallocgc". Receiver and type-parameter brackets may contain
// dots and spaces, so the name is cut at the first '(' or '[' before
// looking for the package's dot.
func packageOf(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(head[slash+1:], '.')
	if dot < 0 {
		return head
	}
	return head[:slash+1+dot]
}

// isGCFrame reports whether a runtime frame belongs to the collector:
// background mark workers, mutator assists, sweeping and scavenging.
func isGCFrame(fn string) bool {
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.markroot", "runtime.scanobject":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gcBgMarkWorker") || strings.HasPrefix(fn, "runtime.gcAssistAlloc") ||
		strings.HasPrefix(fn, "runtime.gcDrain")
}

// layerOfStack buckets one sampled stack, innermost frame first. A stack
// in which the collector runs is gc. Otherwise the innermost frame whose
// package is a named layer decides: runtime frames and standard-library
// helpers other than encoding/json and crypto/sha256 pass the sample to
// their caller, so a read syscall under trace.ReadContainer counts as
// trace I/O. A stack that never reaches a named package is other.
func layerOfStack(frames []string) string {
	for _, fn := range frames {
		if isGCFrame(fn) {
			return "gc"
		}
	}
	for _, fn := range frames {
		if layer, ok := packageLayers[packageOf(fn)]; ok {
			return layer
		}
	}
	return "other"
}

// bucketTraces reads the text of `go tool pprof -traces <profile>` and
// returns the sampled CPU time per layer.
func bucketTraces(text string) (map[string]time.Duration, error) {
	out := map[string]time.Duration{}
	var (
		frames []string
		value  time.Duration
		inBlk  bool
	)
	flush := func() {
		if inBlk && len(frames) > 0 {
			out[layerOfStack(frames)] += value
		}
		frames, value, inBlk = nil, 0, false
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlk = true
			continue
		}
		if !inBlk {
			continue // header lines: File, Type, Duration, ...
		}
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			continue
		}
		if len(frames) == 0 && value == 0 {
			// The first line of a block carries the sample value.
			f := strings.Fields(trimmed)
			d, err := time.ParseDuration(f[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample value in %q: %w", line, err)
			}
			value = d
			trimmed = strings.TrimSpace(strings.TrimPrefix(trimmed, f[0]))
			if trimmed == "" {
				continue
			}
		}
		frames = append(frames, trimmed)
	}
	flush()
	return out, sc.Err()
}

// cpuShares normalizes per-layer time to shares of the total, with every
// layer present (0 when it drew no samples).
func cpuShares(byLayer map[string]time.Duration) (map[string]float64, error) {
	var total time.Duration
	for _, d := range byLayer {
		total += d
	}
	if total <= 0 {
		return nil, fmt.Errorf("cpu profile holds no samples")
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = float64(byLayer[l]) / float64(total)
	}
	return out, nil
}
