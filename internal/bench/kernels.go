package bench

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"time"

	"buspower/internal/bus"
	"buspower/internal/coding"
	"buspower/internal/cpu"
	"buspower/internal/experiments"
	"buspower/internal/stats"
	"buspower/internal/trace"
	"buspower/internal/workload"
)

var (
	errDiskCacheCold = errors.New("bench: disk-warm pass had zero disk cache hits")
	errEvalMemoCold  = errors.New("bench: memo-warm pass had zero eval memo hits")
)

// Kernel is one named micro-benchmark of a pipeline hot path. Fn takes
// the harness's own B (see b.go), so the per-kernel budget is an
// explicit runBenchmark parameter rather than a global testing flag.
type Kernel struct {
	Name string
	Fn   func(b *B)
}

// Kernels returns the micro-benchmarks in report order. Names are stable
// across PRs — the JSON comparison matches on them — so measurements keep
// meaning "the same operation" even as implementations change underneath.
func Kernels() []Kernel {
	return []Kernel{
		{"Meter.Record/dense-32", benchMeterRecordDense},
		{"Meter.Record/sparse-64", benchMeterRecordSparse},
		{"Meter.MeasureTrace/dense-32", benchMeterMeasureTrace},
		{"Window.Encode/8", benchWindowEncode(8)},
		{"Window.Encode/128", benchWindowEncode(128)},
		{"Context.Encode/16", benchContextEncode(16)},
		{"Context.Encode/128", benchContextEncode(128)},
		{"Enum.Encode/optmem-32+2", benchEnumEncode(func() (coding.Transcoder, error) {
			return coding.NewOptMem(32, 2)
		})},
		{"Enum.Encode/vc-32+2", benchEnumEncode(func() (coding.Transcoder, error) {
			return coding.NewVC(32, 2)
		})},
		{"Enum.Encode/lowweight-32g4+1", benchEnumEncode(func() (coding.Transcoder, error) {
			return coding.NewLowWeight(32, 4, 1)
		})},
		{"Coding.EvaluateSweep/window", benchEvaluateSweep},
		{"Evaluate/window-8", benchEvaluateE2E(8, func() (coding.Transcoder, error) {
			return coding.NewWindow(32, 8, 1)
		})},
		{"Evaluate/context-64", benchEvaluateE2E(48, func() (coding.Transcoder, error) {
			return coding.NewContext(coding.ContextConfig{
				Width: 32, TableSize: 64, ShiftEntries: 8,
				DividePeriod: 4096, Lambda: 1,
			})
		})},
		{"Bus.SlicedMeter/32x8k", benchSlicedMeter},
		{"Grid.Stateless/raw-inv-gray", benchGridStateless},
		{"Grid.Stride/k1-8", benchGridStride},
		{"Grid.Optimal/4-family", benchGridOptimal},
		{"Batch.Window/8-128", benchBatchWindow},
		{"Batch.MultiTrace/li-suite", benchBatchMultiTrace},
		{"CPU.Simulate/li-50k", benchSimulate},
		{"Trace.Write/120k", benchTraceWrite},
		{"Trace.Read/120k", benchTraceRead},
		{"Container.Write/3x120k", benchContainerWrite},
		{"Container.Read/3x120k", benchContainerRead},
	}
}

// denseTrace is uniformly random traffic: roughly half of all wires toggle
// every cycle, the worst case for per-wire accounting.
func denseTrace(n int, width int) []bus.Word {
	rng := stats.NewRNG(1)
	mask := bus.Mask(width)
	out := make([]bus.Word, n)
	for i := range out {
		out[i] = bus.Word(rng.Uint64()) & mask
	}
	return out
}

// sparseTrace toggles exactly one high-order wire per cycle — the paper's
// "quiet bus" regime (most cycles move little), and the worst case for
// bit-serial accounting loops that walk from wire 0 to the highest
// toggled wire.
func sparseTrace(n int) []bus.Word {
	out := make([]bus.Word, n)
	for i := range out {
		if i%2 == 1 {
			out[i] = 1 << 62
		}
	}
	return out
}

// dictTrace is dictionary-friendly traffic: a hot working set sized to the
// transcoder table with occasional cold values, so encode exercises both
// the hit (probe) and miss (insert) paths.
func dictTrace(n, hotValues int) []uint64 {
	rng := stats.NewRNG(424242)
	hot := make([]uint64, hotValues)
	for i := range hot {
		hot[i] = rng.Uint64() & 0xFFFFFFFF
	}
	out := make([]uint64, n)
	for i := range out {
		if rng.Intn(12) == 0 {
			out[i] = rng.Uint64() & 0xFFFFFFFF
		} else {
			out[i] = hot[rng.Intn(len(hot))]
		}
	}
	return out
}

func benchMeterRecordDense(b *B) {
	trace := denseTrace(4096, 32)
	m := bus.NewMeter(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Record(trace[i&4095])
	}
}

func benchMeterRecordSparse(b *B) {
	trace := sparseTrace(4096)
	m := bus.NewMeter(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Record(trace[i&4095])
	}
}

func benchMeterMeasureTrace(b *B) {
	trace := denseTrace(4096, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := bus.MeasureTrace(32, trace)
		if m.Cycles() == 0 {
			b.Fatal("empty measurement")
		}
	}
	b.SetBytes(int64(len(trace)) * 8)
}

func benchWindowEncode(entries int) func(b *B) {
	return func(b *B) {
		trace := dictTrace(8192, entries*3/4)
		win, err := coding.NewWindow(32, entries, 1)
		if err != nil {
			b.Fatal(err)
		}
		enc := win.NewEncoder()
		// Warm the dictionary so the steady state dominates.
		for _, v := range trace {
			enc.Encode(v)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			enc.Encode(trace[i&8191])
		}
	}
}

func benchContextEncode(table int) func(b *B) {
	return func(b *B) {
		trace := dictTrace(8192, table*3/4)
		ctx, err := coding.NewContext(coding.ContextConfig{
			Width: 32, TableSize: table, ShiftEntries: 8,
			DividePeriod: 4096, Lambda: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		enc := ctx.NewEncoder()
		for _, v := range trace {
			enc.Encode(v)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			enc.Encode(trace[i&8191])
		}
	}
}

// benchEnumEncode measures the encode path of the optimal-codebook
// coders: a chain of binomial-table lookups per unrank, behind each
// encoder's 64-entry value memo. The trace draws 11 in 12 values from a
// 48-value hot set, so most encodes hit the memo.
func benchEnumEncode(build func() (coding.Transcoder, error)) func(b *B) {
	return func(b *B) {
		trace := dictTrace(8192, 48)
		tc, err := build()
		if err != nil {
			b.Fatal(err)
		}
		enc := tc.NewEncoder()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			enc.Encode(trace[i&8191])
		}
	}
}

// benchGridOptimal fans the four optimal-codebook coders out of one
// EvaluateGrid pass, the way the extopt experiment runs them.
func benchGridOptimal(b *B) {
	vals := dictTrace(8192, 48)
	raw := coding.MeasureRawValues(32, vals)
	var cells []coding.GridCell
	for _, spec := range []string{
		"optmem:extra=2", "vc:extra=2", "lowweight:groups=4,extra=1", "dvs:extra=2,vdd=80",
	} {
		tc, err := coding.BuildScheme(spec)
		if err != nil {
			b.Fatal(err)
		}
		cells = append(cells, coding.GridCell{T: tc, Lambda: 1})
	}
	b.SetBytes(int64(len(vals)) * 8 * int64(len(cells)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coding.EvaluateGrid(cells, vals, raw, coding.VerifySampled(0)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEvaluateE2E measures one whole Evaluator.Evaluate call — encode,
// meter and decoder self-check — the way the experiment runners invoke it
// (sampled verification, shared raw meter, reused evaluator scratch).
// Before PR 4 this operation buffered the coded trace, metered it in a
// second pass and ran the decoder on every cycle; the kernel name is
// stable so the report tracks that same end-to-end operation across both
// implementations.
//
// hot sizes the trace's working set to the scheme's capture range (at or
// just under its dictionary capacity), so the kernel measures the
// transcoder at its operating point — hit-dominated with a realistic miss
// tail — rather than degenerating into a pure raw-send (miss path)
// benchmark.
func benchEvaluateE2E(hot int, build func() (coding.Transcoder, error)) func(b *B) {
	return func(b *B) {
		trace := dictTrace(8192, hot)
		tc, err := build()
		if err != nil {
			b.Fatal(err)
		}
		raw := coding.MeasureRawValues(32, trace)
		var ev coding.Evaluator
		ev.Verify = coding.VerifySampled(0)
		ev.Use(tc)
		if _, err := ev.Evaluate(trace, 1, raw); err != nil { // warm scratch
			b.Fatal(err)
		}
		b.SetBytes(int64(len(trace)) * 8)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ev.Evaluate(trace, 1, raw); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchEvaluateSweep is the experiments' inner loop in miniature: several
// window sizes evaluated over one shared trace, the way the figure sweeps
// multiply schemes × parameters over each workload.
func benchEvaluateSweep(b *B) {
	trace := dictTrace(8192, 24)
	sizes := []int{4, 8, 16, 32}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := evaluateWindowSweep(trace, sizes); err != nil {
			b.Fatal(err)
		}
	}
}

// evaluateWindowSweep evaluates each window size on the trace and returns
// the coded costs. It uses the same coding-package entry points as the
// experiment runners, so its cost tracks theirs: one shared raw-bus
// measurement for the sweep, encoder/decoder state reused via Evaluator.
func evaluateWindowSweep(trace []uint64, sizes []int) ([]float64, error) {
	raw := coding.MeasureRawValues(32, trace)
	var ev coding.Evaluator
	out := make([]float64, 0, len(sizes))
	for _, n := range sizes {
		win, err := coding.NewWindow(32, n, 1)
		if err != nil {
			return nil, err
		}
		ev.Use(win)
		res, err := ev.Evaluate(trace, 1, raw)
		if err != nil {
			return nil, err
		}
		out = append(out, res.CodedCost())
	}
	return out, nil
}

// benchSlicedMeter measures the transposed-trace metering primitive
// (bus.SlicedTrace): one transpose of an 8k-value trace into bit planes
// plus a word-parallel Σλ/Σψ count.
func benchSlicedMeter(b *B) {
	vals := dictTrace(8192, 48)
	b.SetBytes(int64(len(vals)) * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := bus.NewSlicedTrace(32, vals)
		if st.MeterLite().Cycles() == 0 {
			b.Fatal("empty sliced measurement")
		}
	}
}

// benchGridStateless fans the stateless coders (raw at two Λ, inversion,
// gray) out of one EvaluateGrid pass — the single-pass scheme-grid
// evaluation the experiment sweeps run on.
func benchGridStateless(b *B) {
	vals := dictTrace(8192, 48)
	raw := coding.MeasureRawValues(32, vals)
	inv, err := coding.NewBusInvert(32, 1)
	if err != nil {
		b.Fatal(err)
	}
	gray, err := coding.NewGray(32)
	if err != nil {
		b.Fatal(err)
	}
	cells := []coding.GridCell{
		{T: coding.NewRaw(32), Lambda: 1},
		{T: coding.NewRaw(32), Lambda: 2},
		{T: inv, Lambda: 1},
		{T: gray, Lambda: 1},
	}
	b.SetBytes(int64(len(vals)) * 8 * int64(len(cells)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coding.EvaluateGrid(cells, vals, raw, coding.VerifySampled(0)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGridStride evaluates a whole stride bank-depth sweep (k = 1..8)
// in one grid pass: the shared prefix-nesting tape is built once and
// replayed per depth, the way the figure-8 family runs.
func benchGridStride(b *B) {
	vals := dictTrace(8192, 24)
	raw := coding.MeasureRawValues(32, vals)
	var cells []coding.GridCell
	for k := 1; k <= 8; k++ {
		st, err := coding.NewStride(32, k, 1)
		if err != nil {
			b.Fatal(err)
		}
		cells = append(cells, coding.GridCell{T: st, Lambda: 1})
	}
	b.SetBytes(int64(len(vals)) * 8 * int64(len(cells)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coding.EvaluateGrid(cells, vals, raw, coding.VerifySampled(0)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBatchWindow fans a whole window register-size family out of one
// grid pass — the shared-prefix batch engine: one probe index, exact
// per-size rings, one pass over the trace metering every size at once.
func benchBatchWindow(b *B) {
	vals := dictTrace(8192, 48)
	raw := coding.MeasureRawValues(32, vals)
	var cells []coding.GridCell
	for _, n := range []int{8, 16, 32, 64, 128} {
		w, err := coding.NewWindow(32, n, 1)
		if err != nil {
			b.Fatal(err)
		}
		cells = append(cells, coding.GridCell{T: w, Lambda: 1})
	}
	b.SetBytes(int64(len(vals)) * 8 * int64(len(cells)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coding.EvaluateGrid(cells, vals, raw, coding.VerifySampled(0)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBatchMultiTrace streams a small simulated suite — li's register,
// memory-data and memory-address buses — through one EvaluateBatch call,
// the way the experiment runners fan a scheme grid over a workload's
// traces with shared transcoder scratch.
func benchBatchMultiTrace(b *B) {
	w, err := workload.ByName("li")
	if err != nil {
		b.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		b.Fatal(err)
	}
	sim, err := cpu.NewSimulator(p, cpu.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	tr := sim.Run(50_000, 0)
	var cells []coding.GridCell
	for _, n := range []int{8, 32, 128} {
		win, err := coding.NewWindow(32, n, 1)
		if err != nil {
			b.Fatal(err)
		}
		cells = append(cells, coding.GridCell{T: win, Lambda: 1})
	}
	var total int
	traces := make([]coding.BatchTrace, 0, 3)
	for _, vals := range [][]uint64{tr.RegisterBus, tr.MemoryBus, tr.MemoryAddrBus} {
		traces = append(traces, coding.BatchTrace{Values: vals, Raw: coding.MeasureRawValues(32, vals)})
		total += len(vals)
	}
	b.SetBytes(int64(total) * 8 * int64(len(cells)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := coding.EvaluateBatch(cells, traces, coding.VerifySampled(0))
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != len(traces) {
			b.Fatal("short batch result")
		}
	}
}

func benchSimulate(b *B) {
	w, err := workload.ByName("li")
	if err != nil {
		b.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := cpu.NewSimulator(p, cpu.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		tr := sim.Run(50_000, 0)
		if tr.Instructions == 0 {
			b.Fatal("no instructions executed")
		}
	}
}

// benchTraceSize matches DefaultRunConfig's per-bus trace length, so the
// serialization kernels measure the payload the cache actually moves.
const benchTraceSize = 120_000

func benchTraceValues(n int) []uint64 {
	rng := stats.NewRNG(7)
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64() & 0xFFFFFFFF
	}
	return out
}

func benchTraceWrite(b *B) {
	tr := &trace.Trace{Name: "bench/reg", Width: 32, Values: benchTraceValues(benchTraceSize)}
	b.SetBytes(int64(len(tr.Values)) * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func benchTraceRead(b *B) {
	tr := &trace.Trace{Name: "bench/reg", Width: 32, Values: benchTraceValues(benchTraceSize)}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchContainer mirrors one disk-cache entry: three bus sections at the
// full default trace length.
func benchContainer() *trace.Container {
	return &trace.Container{
		Name: "bench",
		Meta: []byte(`{"instructions":1500000,"cycles":2000000}`),
		Sections: []trace.Section{
			{Name: "reg", Width: 32, Values: benchTraceValues(benchTraceSize)},
			{Name: "mem", Width: 32, Values: benchTraceValues(benchTraceSize)},
			{Name: "addr", Width: 32, Values: benchTraceValues(benchTraceSize)},
		},
	}
}

func benchContainerWrite(b *B) {
	c := benchContainer()
	b.SetBytes(3 * benchTraceSize * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func benchContainerRead(b *B) {
	c := benchContainer()
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ReadContainer(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// mcyclesPerSec converts an EvaluatedCycles delta and a wall-clock
// duration into the suite throughput figure (millions of trace-cycle ×
// grid-cell units per second).
func mcyclesPerSec(cycles uint64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(cycles) / 1e6 / d.Seconds()
}

// runE2E times one full quick-scale regeneration of every artifact through
// the parallel engine in six states: cold (no caches — CPU simulation
// included), warm (in-memory traces, result memo cleared — the recompute
// cost with hot traces), memo-cold (identical inputs to warm: the eval
// memo is cleared again, isolating the evaluation recompute the memo
// exists to avoid), memo-warm (nothing cleared — the cost a rerun pays
// once every Result is memoized), disk-cold (an empty persistent cache
// directory being populated), and disk-warm (memory caches emptied but
// the directory kept — the cost a fresh process with a shipped cache dir
// pays). The eval memo is cleared before both disk phases so their
// numbers stay comparable with pre-memo reports.
//
// E2E phases run under sampled verification like real experiment runs
// (the CLI's -verify default); the tables are bit-identical either way.
func runE2E(includeFull bool) (*E2EResult, error) {
	cfg := experiments.QuickConfig()
	cfg.Verify = coding.VerifySampled(0)
	ids, err := experiments.ResolveIDs("all")
	if err != nil {
		return nil, err
	}
	runAll := func() (int, time.Duration, error) {
		start := time.Now()
		tables, err := experiments.RunAll(context.Background(), cfg, ids, experiments.Options{})
		return len(tables), time.Since(start), err
	}
	workload.ClearTraceCache()
	experiments.ClearEvalMemo()
	tables, cold, err := runAll()
	if err != nil {
		return nil, err
	}
	experiments.ClearEvalMemo()
	warmCycles := coding.EvaluatedCycles()
	_, warm, err := runAll()
	if err != nil {
		return nil, err
	}
	warmCycles = coding.EvaluatedCycles() - warmCycles
	experiments.ClearEvalMemo()
	_, memoCold, err := runAll()
	if err != nil {
		return nil, err
	}
	_, memoWarm, err := runAll()
	if err != nil {
		return nil, err
	}
	if s := experiments.EvalMemoStats(); s.Hits == 0 {
		// The memo-warm pass was supposed to be served from the memo; a
		// zero here means the memo is broken and the timing is a lie.
		return nil, errEvalMemoCold
	}

	// Disk phases run against a throwaway cache directory so the harness
	// never measures (or pollutes) a user's real cache.
	dir, err := os.MkdirTemp("", "buspower-bench-cache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	prevDir, err := workload.SetTraceCacheDir(dir)
	if err != nil {
		return nil, err
	}
	defer workload.SetTraceCacheDir(prevDir)
	workload.ClearTraceCache()
	experiments.ClearEvalMemo()
	_, diskCold, err := runAll()
	if err != nil {
		return nil, err
	}
	workload.ClearTraceCache() // memory only; the .trc files persist
	experiments.ClearEvalMemo()
	_, diskWarm, err := runAll()
	if err != nil {
		return nil, err
	}
	if s := workload.Stats(); s.DiskHits == 0 {
		// The warm pass was supposed to be served from disk; a zero here
		// means the cache is broken and the timing is a lie.
		return nil, errDiskCacheCold
	}
	res := &E2EResult{
		IDs:               "all",
		Config:            "quick",
		Jobs:              0,
		Tables:            tables,
		ColdMS:            float64(cold.Microseconds()) / 1000,
		WarmMS:            float64(warm.Microseconds()) / 1000,
		WarmMCyclesPerSec: mcyclesPerSec(warmCycles, warm),
		MemoColdMS:        float64(memoCold.Microseconds()) / 1000,
		MemoWarmMS:        float64(memoWarm.Microseconds()) / 1000,
		DiskColdMS:        float64(diskCold.Microseconds()) / 1000,
		DiskWarmMS:        float64(diskWarm.Microseconds()) / 1000,
	}
	if !includeFull {
		return res, nil
	}

	// Full-scale phase: the paper-axes regeneration, timed cold (clean
	// memory caches against the still-throwaway disk dir, so the CPU
	// simulation of every workload is included) and warm (traces in
	// memory, every evaluation recomputed).
	fullCfg := experiments.DefaultConfig()
	fullCfg.Verify = coding.VerifySampled(0)
	runFull := func() (time.Duration, error) {
		start := time.Now()
		_, err := experiments.RunAll(context.Background(), fullCfg, ids, experiments.Options{})
		return time.Since(start), err
	}
	// Both full phases report the minimum of three runs: a full pass is
	// long enough that scheduler noise on a shared host dominates any
	// single sample, and the minimum is the run least disturbed by it.
	const fullReps = 3
	var fullDirs []string
	defer func() {
		for _, d := range fullDirs {
			os.RemoveAll(d)
		}
	}()
	var fullCold, fullWarm time.Duration
	for r := 0; r < fullReps; r++ {
		// Every cold rep gets a fresh empty disk dir: the first pass
		// populates whatever directory it runs against, and a reused one
		// would silently turn reps two and three into disk-warm runs.
		fullDir, err := os.MkdirTemp("", "buspower-bench-full-")
		if err != nil {
			return nil, err
		}
		fullDirs = append(fullDirs, fullDir)
		if _, err := workload.SetTraceCacheDir(fullDir); err != nil {
			return nil, err
		}
		workload.ClearTraceCache()
		experiments.ClearEvalMemo()
		d, err := runFull()
		if err != nil {
			return nil, err
		}
		if r == 0 || d < fullCold {
			fullCold = d
		}
	}
	// Warm reps reuse the traces the last cold rep left in memory; only
	// the evaluation memos are cleared, so each rep re-pays exactly the
	// recompute the warm figure measures. The cycle delta is taken around
	// the first rep (the count is deterministic across reps).
	fullCycles := coding.EvaluatedCycles()
	for r := 0; r < fullReps; r++ {
		experiments.ClearEvalMemo()
		d, err := runFull()
		if err != nil {
			return nil, err
		}
		if r == 0 {
			fullCycles = coding.EvaluatedCycles() - fullCycles
		}
		if r == 0 || d < fullWarm {
			fullWarm = d
		}
	}
	res.FullColdMS = float64(fullCold.Microseconds()) / 1000
	res.FullWarmMS = float64(fullWarm.Microseconds()) / 1000
	res.FullWarmMCyclesPerSec = mcyclesPerSec(fullCycles, fullWarm)
	return res, nil
}
