package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"buspower/internal/bus"
	"buspower/internal/circuit"
	"buspower/internal/coding"
	"buspower/internal/energy"
	"buspower/internal/experiments"
	"buspower/internal/report"
	"buspower/internal/serve"
	"buspower/internal/trace"
	"buspower/internal/wire"
	"buspower/internal/workload"
)

// The traced run: one in-process pass that times calls into each
// module's public functions, in the cache state of the workload it is
// run for, and reports the per-layer metrics. Spans are recorded from
// this file around those calls; they are kept in memory and written to
// the run's artifact directory at the end.

const (
	// kernelTrace is the full-scale register-bus trace the per-kind
	// encode and meter kernels run on.
	kernelTrace = "gcc"
	// kernelReps is how often each kernel is timed; its median is kept.
	kernelReps = 3
	// directReqs is how many serve-miss requests go through the entry
	// point step by step.
	directReqs = 1024
	// handlerMissReqs and handlerHitReqs are the handler replays'
	// lengths: about two seconds each on a 2-vCPU host, so a profile of
	// either holds a few hundred samples.
	handlerMissReqs = 3072
	handlerHitReqs  = 250000
	// probeFor is the length of the untraced serve probe of a traced run.
	probeFor = 3 * time.Second
	// energyCalls is how many NewAnalysis+CrossoverMM calls one energy
	// timing covers.
	energyCalls = 2000
)

// allocBytes reads the cumulative heap allocation. ReadMemStats is exact
// (it stops the world), so it is only ever called outside timed spans.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// tracedRun runs the traced, in-process measurement for e.workload.
func tracedRun(e *runEnv) (*outcome, error) {
	out := newOutcome()
	tr := newTracer()
	regen := strings.HasPrefix(e.workload, "regen-")
	warm := e.workload == "regen-warm"
	hit := e.workload == "serve-hit"

	// The untraced reference first, in the same cache state: one
	// -exp all process for regen, a short serve probe for serve. The
	// probe also supplies the end-to-end p50 and the /metrics figures.
	cacheDir, err := e.freshDir("regen-cache")
	if err != nil {
		return nil, err
	}
	var untracedWall time.Duration
	if warm {
		if _, err := runProc(e.ctx, e.bin, "-exp", populateExp, "-trace-cache", cacheDir); err != nil {
			return nil, err
		}
	}
	if regen {
		refDir := cacheDir
		if !warm {
			if refDir, err = e.freshDir("ref-cache"); err != nil {
				return nil, err
			}
		}
		outDir, err := e.freshDir("ref-tables")
		if err != nil {
			return nil, err
		}
		st, err := runProc(e.ctx, e.bin, "-exp", "all", "-trace-cache", refDir, "-o", outDir)
		if err != nil {
			return nil, err
		}
		untracedWall = st.wall
	}
	probe, err := measureServe(e, hit, 1, probeFor)
	if err != nil {
		return nil, err
	}
	mismatches, err := verifySamples(probe.traceDir, probe.lr.samples)
	if err != nil {
		return nil, err
	}
	out.attempted += probe.lr.requests
	out.failed += probe.lr.non200 + mismatches

	// Regeneration, traced, profiled for the regen workloads; the serve
	// workloads profile their own handler replay instead.
	profPath := filepath.Join(e.keepDir, "cpu.pprof")
	regenProf := ""
	if regen {
		regenProf = profPath
	}
	runAllWall, err := tracedRegen(e, out, tr, cacheDir, regenProf)
	if err != nil {
		return nil, err
	}

	if err := layerKernels(out, tr); err != nil {
		return nil, err
	}

	// Serving, traced: the workload's sequences replayed in-process.
	workload.ClearTraceCache()
	experiments.ClearEvalMemo()
	if _, err := workload.SetTraceCacheDir(probe.traceDir); err != nil {
		return nil, err
	}
	rp, err := replayServe(out, tr, probe.gen, hit, regen, profPath)
	if err != nil {
		return nil, err
	}
	out.attempted += rp.requests
	out.failed += rp.failed

	// The untraced probe's figures, and transport: end-to-end p50 minus
	// the in-process handler p50 of the same sequence.
	handlerP50 := rp.missP50
	if hit {
		handlerP50 = rp.hitP50
	}
	e2eP50 := time.Duration(median(probe.lr.latencies) * 1e9)
	out.set("serve.transport.us", "us", float64(e2eP50-handlerP50)/1e3)
	d := func(name string, match map[string]string) float64 {
		return promSum(probe.prom1, name, match) - promSum(probe.prom0, name, match)
	}
	hitRatio := func(prefix string) float64 {
		h, m := d(prefix+"_hits", nil), d(prefix+"_misses", nil)
		if h+m == 0 {
			return 0
		}
		return h / (h + m)
	}
	out.set("serve.resp_cache.hit_ratio", "ratio", hitRatio("buspower_response_cache"))
	out.set("serve.eval_memo.hit_ratio", "ratio", hitRatio("buspower_eval_memo"))
	out.set("serve.pool.rejected", "count", d("buspower_pool_rejected_total", nil))
	evals := map[string]string{"handler": "eval"}
	if n := d("buspower_request_duration_seconds_count", evals); n > 0 {
		out.set("serve.server_ms_per_req", "ms", d("buspower_request_duration_seconds_sum", evals)*1000/n)
	} else {
		return nil, fmt.Errorf("/metrics counted no eval requests during the probe")
	}

	// Tracing overhead: the traced wall of the profiled section against
	// the untraced run of the same work.
	profiled := rp.profiledWall
	if regen {
		profiled = runAllWall
		out.set("tracing.overhead_ratio", "ratio", runAllWall.Seconds()/untracedWall.Seconds())
	} else {
		perReqTraced := profiled.Seconds() / float64(rp.profiledReqs)
		perReqUntraced := float64(serveConns) / probe.rps()
		out.set("tracing.overhead_ratio", "ratio", perReqTraced/perReqUntraced)
	}

	shares, err := profileShares(profPath)
	if err != nil {
		return nil, err
	}
	for _, l := range cpuLayers {
		out.set("cpu_share."+l, "ratio", shares[l])
	}
	if err := tr.writeJSONL(filepath.Join(e.keepDir, "spans.jsonl")); err != nil {
		return nil, err
	}
	out.context["spans"] = filepath.Join(e.keepDir, "spans.jsonl")
	out.context["profiled_s"] = profiled.Seconds()
	return out, nil
}

// tracedRegen runs experiments.RunAll over every experiment at full scale
// on the trace cache in cacheDir, one span per experiment under a RunAll
// span, and checks every table against results/. It then counts the
// paper self-check's MATCH rows and times the disk-warm reload of every
// trace. With a non-empty profPath, RunAll runs under a CPU profile.
// It returns RunAll's wall time.
func tracedRegen(e *runEnv, out *outcome, tr *tracer, cacheDir, profPath string) (time.Duration, error) {
	if _, err := workload.SetTraceCacheDir(cacheDir); err != nil {
		return 0, err
	}
	workload.ClearTraceCache()
	experiments.ClearEvalMemo()
	coding.ClearStrideTapeCache()
	cfg := experiments.DefaultConfig()
	var err error
	if cfg.Verify, err = coding.ParseVerifyPolicy("sampled"); err != nil {
		return 0, err
	}
	ids := experiments.IDs()
	root := tr.reserve("experiments.run_all", 0, -1)
	opts := experiments.Options{Progress: func(ev experiments.ProgressEvent) {
		if ev.Done {
			end := time.Now()
			tr.record("experiments."+ev.ID, root, -1, end.Add(-ev.Elapsed), end)
		}
	}}
	var stop func() error
	if profPath != "" {
		if stop, err = startProfile(profPath); err != nil {
			return 0, err
		}
	}
	cycles0, alloc0 := coding.EvaluatedCycles(), allocBytes()
	t0 := time.Now()
	tables, err := experiments.RunAll(e.ctx, cfg, ids, opts)
	t1 := time.Now()
	runAll := t1.Sub(t0)
	if stop != nil {
		if err := stop(); err != nil {
			return 0, err
		}
	}
	if err != nil {
		return 0, err
	}
	tr.close(root, t0, t1)
	out.set("runtime.alloc_mb", "MB", float64(allocBytes()-alloc0)/1e6)
	out.set("coding.eval_mcycles", "Mcycles", float64(coding.EvaluatedCycles()-cycles0)/1e6)
	for i, id := range ids {
		want, err := os.ReadFile(filepath.Join(e.root, "results", id+".tsv"))
		out.attempted++
		if err != nil || tables[i].TSV() != string(want) {
			out.failed++
		}
		out.set("experiments."+id+".s", "s", time.Duration(tr.durations("experiments." + id)[0]).Seconds())
	}
	ratio := func(s experiments.MemoStats) float64 {
		if s.Hits+s.Misses == 0 {
			return 0
		}
		return float64(s.Hits) / float64(s.Hits+s.Misses)
	}
	out.set("experiments.memo.hit_ratio", "ratio", ratio(experiments.EvalMemoStats()))
	out.set("experiments.raw_meter.hit_ratio", "ratio", ratio(experiments.RawMeterMemoStats()))
	out.set("experiments.sliced.hit_ratio", "ratio", ratio(experiments.SlicedCacheStats()))
	ws := workload.Stats()
	out.set("workload.disk_hits", "count", float64(ws.DiskHits))
	out.set("workload.disk_misses", "count", float64(ws.DiskMisses))

	// Model accuracy: the paper self-check, on the memo RunAll left.
	rep, err := report.BuildContext(e.ctx, cfg, experiments.Options{})
	if err != nil {
		return 0, err
	}
	matches := 0
	for _, c := range rep.Checks {
		if c.Grade() == report.VerdictMatch {
			matches++
		}
	}
	out.set("report.match_rows", "count", float64(matches))

	// Trace I/O: every trace RunAll used, read back from the now
	// populated disk cache.
	workload.ClearTraceCache()
	t0 = time.Now()
	for _, name := range workload.Names() {
		if _, err := workload.Traces(name, cfg.Run); err != nil {
			return 0, err
		}
	}
	t1 = time.Now()
	tr.record("workload.traces_disk_warm", 0, -1, t0, t1)
	out.set("workload.traces_disk_warm_s", "s", t1.Sub(t0).Seconds())
	if s := workload.Stats(); s.DiskMisses != 0 {
		return 0, fmt.Errorf("disk-warm trace load missed %d times", s.DiskMisses)
	}
	return runAll, nil
}

// startProfile starts a CPU profile into path and returns its stop.
func startProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// profileShares buckets a CPU profile by layer through the installed
// toolchain's pprof.
func profileShares(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	text, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, lastLines(stderr.String(), 3))
	}
	byLayer, err := bucketTraces(string(text))
	if err != nil {
		return nil, err
	}
	return cpuShares(byLayer)
}

// timeIt runs f and records it as a span.
func timeIt(tr *tracer, name string, f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	tr.record(name, 0, -1, t0, t1)
	return t1.Sub(t0), err
}

// medianOf times f reps times and returns the median duration.
func medianOf(tr *tracer, name string, reps int, f func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		d, err := timeIt(tr, name, f)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

// layerKernels times direct calls into the simulate, trace I/O, encode,
// meter and analyze layers on fixed full-scale inputs.
func layerKernels(out *outcome, tr *tracer) error {
	run := workload.DefaultRunConfig()

	// Simulate: every workload once at full scale.
	var instrs, cycles uint64
	var simWall time.Duration
	var gcc workload.TraceSet
	for _, w := range workload.All() {
		var ts workload.TraceSet
		d, err := timeIt(tr, "cpu.run", func() (err error) {
			ts, err = workload.Run(w, run)
			return err
		})
		if err != nil {
			return err
		}
		simWall += d
		instrs += ts.Summary.Instructions
		cycles += ts.Summary.Cycles
		if w.Name == kernelTrace {
			gcc = ts
		}
	}
	out.set("cpu.run_s", "s", simWall.Seconds())
	out.set("cpu.minstr_per_s", "Minstr/s", float64(instrs)/1e6/simWall.Seconds())
	out.set("cpu.instrs", "count", float64(instrs))
	out.set("cpu.sim_cycles", "count", float64(cycles))
	if len(gcc.Reg) == 0 {
		return fmt.Errorf("no %s register trace", kernelTrace)
	}

	// Trace I/O: one workload's container through memory.
	c := &trace.Container{Name: gcc.Workload, Sections: []trace.Section{
		{Name: "reg", Width: 32, Values: gcc.Reg},
		{Name: "mem", Width: 32, Values: gcc.Mem},
		{Name: "addr", Width: 32, Values: gcc.Addr},
	}}
	var buf bytes.Buffer
	wd, err := medianOf(tr, "trace.write", kernelReps, func() error { buf.Reset(); return c.Write(&buf) })
	if err != nil {
		return err
	}
	mb := float64(buf.Len()) / 1e6
	rd, err := medianOf(tr, "trace.read", kernelReps, func() error {
		_, err := trace.ReadContainer(bytes.NewReader(buf.Bytes()))
		return err
	})
	if err != nil {
		return err
	}
	out.set("trace.write_mb_per_s", "MB/s", mb/wd.Seconds())
	out.set("trace.read_mb_per_s", "MB/s", mb/rd.Seconds())

	// Encode: every scheme kind at its /v1/schemes example.
	reg := gcc.Reg
	n := float64(len(reg))
	examples, err := schemeExamples()
	if err != nil {
		return err
	}
	var window8 coding.Result
	for _, ex := range examples {
		kind, _, _ := strings.Cut(ex, ":")
		tc, err := coding.BuildScheme(ex)
		if err != nil {
			return err
		}
		var res coding.Result
		d, err := medianOf(tr, "coding."+kind, kernelReps, func() (err error) {
			res, err = coding.Evaluate(tc, reg, 1)
			return err
		})
		if err != nil {
			return err
		}
		if ex == "window:entries=8" {
			window8 = res
		}
		out.set("coding."+kind+".ns_per_cycle", "ns", float64(d)/n)
	}
	if window8.Raw == nil {
		return fmt.Errorf("no window:entries=8 example among %v", examples)
	}

	// Encode, grouped: a fig17/fig19-shaped grid through EvaluateGrid.
	var cells []coding.GridCell
	for _, lambda := range []float64{0.5, 1, 2} {
		for _, s := range []string{"raw", "gray", "stride:strides=1", "stride:strides=2", "stride:strides=4", "stride:strides=8",
			"window:entries=2", "window:entries=4", "window:entries=8", "window:entries=16", "window:entries=32", "window:entries=64"} {
			tc, err := coding.BuildScheme(s)
			if err != nil {
				return err
			}
			cells = append(cells, coding.GridCell{T: tc, Lambda: lambda})
		}
	}
	sampled, err := coding.ParseVerifyPolicy("sampled")
	if err != nil {
		return err
	}
	raw := coding.MeasureRawValues(32, reg)
	gd, err := medianOf(tr, "coding.grid", kernelReps, func() error {
		_, err := coding.EvaluateGrid(cells, reg, raw, sampled)
		return err
	})
	if err != nil {
		return err
	}
	out.set("coding.grid.ns_per_cell_cycle", "ns", float64(gd)/n/float64(len(cells)))

	// Meter: the scalar popcount-of-XOR meter and the bit-sliced one.
	md, err := medianOf(tr, "bus.meter", kernelReps, func() error {
		m := bus.NewMeter(32)
		m.Record(0)
		m.RecordValues(reg)
		return nil
	})
	if err != nil {
		return err
	}
	out.set("bus.meter.ns_per_cycle", "ns", float64(md)/n)
	sd, err := medianOf(tr, "bus.sliced", kernelReps, func() error {
		bus.NewSlicedTrace(32, reg).Meter()
		return nil
	})
	if err != nil {
		return err
	}
	out.set("bus.sliced.ns_per_cycle", "ns", float64(sd)/n)

	// Analyze: the §5 energy model and break-even length.
	techs := wire.Technologies()
	ed, err := medianOf(tr, "energy.analysis", kernelReps, func() error {
		for i := 0; i < energyCalls; i++ {
			a, err := energy.NewAnalysis(techs[i%len(techs)], window8, circuit.WindowDesign, 8)
			if err != nil {
				return err
			}
			a.CrossoverMM()
		}
		return nil
	})
	if err != nil {
		return err
	}
	out.set("energy.analysis.us_per_call", "us", float64(ed)/1e3/energyCalls)
	return nil
}

// schemeExamples reads every kind's example from the serving layer's
// own /v1/schemes handler.
func schemeExamples() ([]string, error) {
	srv := serve.NewServer(serve.Options{})
	defer srv.Close()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/schemes", nil))
	var doc struct {
		Schemes []struct {
			Example string `json:"example"`
		} `json:"schemes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("/v1/schemes: %w", err)
	}
	var out []string
	for _, s := range doc.Schemes {
		out = append(out, s.Example)
	}
	return out, nil
}

// replayResult summarizes the in-process serve replays.
type replayResult struct {
	requests, failed int
	missP50, hitP50  time.Duration
	profiledWall     time.Duration
	profiledReqs     int
}

// replayServe replays the serve sequences in-process. First the
// served entry point step by step, one span per call under one request
// span; then fresh requests of the same sequence through
// serve.NewServer(...).Handler() via httptest; then the hit set. The
// CPU profile covers the handler replay of the workload's own sequence
// (miss for every workload but serve-hit) unless regen already profiled
// RunAll.
func replayServe(out *outcome, tr *tracer, gen *seqGen, hit, regen bool, profPath string) (*replayResult, error) {
	res := &replayResult{}
	// Warm the named traces the way the server's set-up does.
	for _, b := range gen.warmNamedBodies() {
		if _, err := inProcessResponse(b); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	// Entry point, step by step.
	type step struct {
		name string
		durs []float64
		kb   []float64
	}
	steps := map[string]*step{}
	timed := func(name string, root, req int, f func() error) error {
		a0 := allocBytes()
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		a1 := allocBytes()
		tr.record(name, root, req, t0, t1)
		s := steps[name]
		if s == nil {
			s = &step{name: name}
			steps[name] = s
		}
		s.durs = append(s.durs, float64(t1.Sub(t0)))
		s.kb = append(s.kb, float64(a1-a0)/1024)
		return err
	}
	for i := 0; i < directReqs; i++ {
		body := gen.missBody(i)
		root := tr.reserve("serve.request", 0, i)
		t0 := time.Now()
		var req experiments.EvalRequest
		var resp *experiments.EvalResponse
		evalName := "experiments.evaluate.inline"
		if isNamed(i) {
			evalName = "experiments.evaluate.named"
		}
		err := timed("experiments.parse", root, i, func() (err error) { req, err = experiments.ParseEvalRequest(body); return err })
		if err == nil {
			err = timed("coding.build", root, i, func() error { _, err := coding.BuildScheme(req.Scheme); return err })
		}
		if err == nil {
			err = timed("experiments.key", root, i, func() error { _, err := experiments.RequestKey(req); return err })
		}
		if err == nil {
			err = timed(evalName, root, i, func() (err error) {
				resp, err = experiments.EvaluateRequest(context.Background(), req)
				return err
			})
		}
		if err == nil {
			err = timed("serve.marshal", root, i, func() error { _, err := json.Marshal(resp); return err })
		}
		tr.close(root, t0, time.Now())
		res.requests++
		if err != nil {
			res.failed++
		}
	}
	for _, name := range []string{"experiments.parse", "coding.build", "experiments.key",
		"experiments.evaluate.inline", "experiments.evaluate.named"} {
		s := steps[name]
		if s == nil {
			return nil, fmt.Errorf("replay recorded no %s spans", name)
		}
		out.set(name+".us", "us", median(s.durs)/1e3)
		out.set(name+".alloc_kb", "KiB", median(s.kb))
	}
	out.set("serve.marshal.us", "us", median(steps["serve.marshal"].durs)/1e3)

	// The same sequence through the HTTP handler, continuing at fresh
	// indices so every request still misses every cache, then the hit
	// set. Bodies and the hit order are made before timing, so the
	// profile holds the server's work and the httptest harness only.
	srv := serve.NewServer(serve.Options{QuietAccessLog: true})
	defer srv.Close()
	h := srv.Handler()
	missBodies := make([][]byte, handlerMissReqs)
	for j := range missBodies {
		missBodies[j] = gen.missBody(directReqs + j)
	}
	hits := gen.hitSet()
	hitBodiesInOrder := make([][]byte, handlerHitReqs)
	for j := range hitBodiesInOrder {
		hitBodiesInOrder[j] = hits[gen.hitIndex(j)]
	}
	// replay sends bodies through the handler and returns each request's
	// duration and the bytes allocated per request. perRequestSpans
	// records one span per request; otherwise one span covers the loop.
	replay := func(name string, bodies [][]byte, own, perRequestSpans bool) ([]float64, float64, error) {
		var stop func() error
		if own && !regen {
			var err error
			if stop, err = startProfile(profPath); err != nil {
				return nil, 0, err
			}
		}
		durs := make([]float64, 0, len(bodies))
		a0 := allocBytes()
		start := time.Now()
		for _, b := range bodies {
			req := httptest.NewRequest(http.MethodPost, "/v1/eval", bytes.NewReader(b))
			rec := httptest.NewRecorder()
			t0 := time.Now()
			h.ServeHTTP(rec, req)
			t1 := time.Now()
			if perRequestSpans {
				tr.record(name, 0, -1, t0, t1)
			}
			res.requests++
			if rec.Code != http.StatusOK {
				res.failed++
				continue
			}
			durs = append(durs, float64(t1.Sub(t0)))
		}
		wall := time.Since(start)
		if !perRequestSpans {
			tr.record(name+".replay", 0, -1, start, start.Add(wall))
		}
		perReq := float64(allocBytes()-a0) / float64(len(bodies))
		if stop != nil {
			if err := stop(); err != nil {
				return nil, 0, err
			}
			res.profiledWall, res.profiledReqs = wall, len(bodies)
		}
		if len(durs) == 0 {
			return nil, 0, fmt.Errorf("%s: no request succeeded", name)
		}
		return durs, perReq, nil
	}
	missDurs, missAlloc, err := replay("serve.handler_miss", missBodies, !hit, true)
	if err != nil {
		return nil, err
	}
	if _, _, err := replay("serve.warm", hits, false, true); err != nil {
		return nil, err
	}
	hitDurs, hitAlloc, err := replay("serve.handler_hit", hitBodiesInOrder, hit, false)
	if err != nil {
		return nil, err
	}
	res.missP50 = time.Duration(median(missDurs))
	res.hitP50 = time.Duration(median(hitDurs))
	out.set("serve.handler_miss.us", "us", median(missDurs)/1e3)
	out.set("serve.handler_hit.us", "us", median(hitDurs)/1e3)
	alloc := missAlloc
	if hit {
		alloc = hitAlloc
	}
	out.set("runtime.alloc_kb_per_req", "KiB", alloc/1024)
	return res, nil
}
