package main

import (
	"testing"
	"time"
)

// A trimmed /metrics exposition in the server's own format.
const promFixture = `# HELP buspower_requests_total HTTP requests served, by handler and status code.
# TYPE buspower_requests_total counter
buspower_requests_total{handler="eval",code="200"} 1500
buspower_requests_total{handler="eval",code="429"} 3
buspower_requests_total{handler="metrics",code="200"} 2
buspower_request_duration_seconds_bucket{handler="eval",le="0.0005"} 10
buspower_request_duration_seconds_sum{handler="eval"} 1.25
buspower_request_duration_seconds_count{handler="eval"} 1503
# HELP buspower_pool_rejected_total Requests shed with 429 because the queue was full.
# TYPE buspower_pool_rejected_total counter
buspower_pool_rejected_total 3
buspower_response_cache_hits 7
buspower_response_cache_misses 1496
buspower_ring_ownership{node="n\"0"} 0.5
`

func TestParseProm(t *testing.T) {
	s, err := parseProm(promFixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		match map[string]string
		want  float64
	}{
		{"buspower_requests_total", map[string]string{"handler": "eval"}, 1503},
		{"buspower_requests_total", map[string]string{"handler": "eval", "code": "200"}, 1500},
		{"buspower_requests_total", nil, 1505},
		{"buspower_request_duration_seconds_sum", map[string]string{"handler": "eval"}, 1.25},
		{"buspower_pool_rejected_total", nil, 3},
		{"buspower_response_cache_hits", nil, 7},
		{"buspower_ring_ownership", map[string]string{"node": `n"0`}, 0.5},
		{"buspower_absent", nil, 0},
	} {
		if got := promSum(s, c.name, c.match); got != c.want {
			t.Errorf("promSum(%s, %v) = %v, want %v", c.name, c.match, got, c.want)
		}
	}
}

func TestParsePromRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"buspower_x",
		"buspower_x notanumber",
		`buspower_x{handler="eval" 1`,
		`buspower_x{handler=eval} 1`,
		`buspower_x{handler="eval} 1`,
	} {
		if _, err := parseProm(bad); err == nil {
			t.Errorf("parseProm(%q) succeeded", bad)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"runtime.mallocgc": "runtime",
		"buspower/internal/coding.(*contextEncoder).encodeStream":                    "buspower/internal/coding",
		"buspower/internal/experiments.(*sfMemo[go.shape.struct { a.b string }]).Do": "buspower/internal/experiments",
		"encoding/json.(*decodeState).object":                                        "encoding/json",
		"crypto/internal/fips140/sha256.blockAMD64":                                  "crypto/internal/fips140/sha256",
		"main.replayServe.func3":                                                     "main",
		"internal/runtime/maps.(*Map).getWithKey":                                    "internal/runtime/maps",
		"buspower/internal/experiments.parFor.func3":                                 "buspower/internal/experiments",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestLayerOfStack(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		// The innermost repository frame decides.
		{[]string{"buspower/internal/coding.binom", "buspower/internal/coding.(*vc).Encode", "buspower/internal/experiments.Run"}, "coding"},
		// Runtime and plain standard-library frames pass to their caller.
		{[]string{"runtime.memmove", "io.ReadFull", "buspower/internal/trace.ReadContainer", "buspower/internal/workload.simulate"}, "trace"},
		{[]string{"syscall.Syscall", "os.(*File).Read", "buspower/internal/workload.loadTraceSet"}, "cpu"},
		// encoding/json and sha256 are layers of their own.
		{[]string{"runtime.mallocgc", "encoding/json.(*decodeState).array", "buspower/internal/experiments.ParseEvalRequest"}, "json"},
		{[]string{"crypto/internal/fips140/sha256.blockAMD64", "crypto/sha256.(*Digest).Write", "buspower/internal/serve.bodyRingKey"}, "sha256"},
		// Collector work anywhere in the stack is gc.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "buspower/internal/coding.NewWindow"}, "gc"},
		// The benchmark's own frames and frame-less runtime stacks are other.
		{[]string{"net/http.(*conn).serve", "main.closedLoop"}, "other"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.mstart"}, "other"},
	} {
		if got := layerOfStack(c.frames); got != c.want {
			t.Errorf("layerOfStack(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// A trimmed `go tool pprof -traces` output.
const tracesFixture = `File: perfbench
Type: cpu
Duration: 2s, Total samples = 100ms (5.00%)
-----------+-------------------------------------------------------
      50ms   buspower/internal/coding.(*channel).sendRawInt
             buspower/internal/coding.(*contextEncoder).encodeStream
-----------+-------------------------------------------------------
      30ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   encoding/json.checkValid
             buspower/internal/experiments.ParseEvalRequest
-----------+-------------------------------------------------------
      10ms   runtime.futex
-----------+-------------------------------------------------------
`

func TestBucketTraces(t *testing.T) {
	by, err := bucketTraces(tracesFixture)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{"coding": 50 * time.Millisecond, "gc": 30 * time.Millisecond,
		"json": 10 * time.Millisecond, "other": 10 * time.Millisecond}
	for l, d := range want {
		if by[l] != d {
			t.Errorf("layer %s = %v, want %v", l, by[l], d)
		}
	}
	shares, err := cpuShares(by)
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != len(cpuLayers) {
		t.Errorf("cpuShares reports %d layers, want all %d", len(shares), len(cpuLayers))
	}
	if shares["coding"] != 0.5 || shares["serve"] != 0 {
		t.Errorf("shares = %v", shares)
	}
	if _, err := cpuShares(map[string]time.Duration{}); err == nil {
		t.Error("cpuShares of an empty profile succeeded")
	}
	if _, err := bucketTraces("-----------+----\n  bogus   runtime.futex\n"); err == nil {
		t.Error("bucketTraces accepted a non-duration sample value")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100 * ms},
		// Two overlapping children cover 10..50; a third covers 60..70.
		{ID: 2, Parent: 1, Name: "parse", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "key", Start: 30 * ms, End: 50 * ms},
		{ID: 4, Parent: 1, Name: "evaluate", Start: 60 * ms, End: 70 * ms},
		// A grandchild counts against its own parent only.
		{ID: 5, Parent: 4, Name: "meter", Start: 62 * ms, End: 65 * ms},
		// A child running past its parent is clipped to the parent.
		{ID: 6, Name: "outer", Start: 200 * ms, End: 210 * ms},
		{ID: 7, Parent: 6, Name: "late", Start: 205 * ms, End: 230 * ms},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 50 * ms, 2: 30 * ms, 3: 20 * ms, 4: 7 * ms, 5: 3 * ms, 6: 5 * ms, 7: 25 * ms} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestTracerRecordsSpans(t *testing.T) {
	tr := newTracer()
	root := tr.reserve("request", 0, 7)
	t0 := time.Now()
	child := tr.record("parse", root, 7, t0, t0.Add(time.Millisecond))
	tr.close(root, t0, t0.Add(3*time.Millisecond))
	if got := tr.durations("parse"); len(got) != 1 || time.Duration(got[0]) != time.Millisecond {
		t.Errorf("parse durations = %v", got)
	}
	self := selfTimes(tr.spans)
	if self[root] != 2*time.Millisecond || self[child] != time.Millisecond {
		t.Errorf("self times = %v", self)
	}
}
