package main

import (
	"bytes"
	"testing"

	"buspower/internal/coding"
	"buspower/internal/experiments"
	"buspower/internal/workload"
)

var testSchemes = []string{"businvert", "context:table=64,sr=8,divide=4096,transition=false", "dvs:extra=2,vdd=80",
	"gray", "inversion:patterns=4", "lowweight:groups=4,extra=1", "optmem:extra=2", "pbi:groups=4", "raw",
	"spatial:width=4", "stride:strides=4", "vc:extra=2", "window:entries=8"}

func TestMissSequenceNeverRepeats(t *testing.T) {
	g := newSeqGen(1, testSchemes, namedSources(workload.Names()))
	seen := map[string]int{}
	named := 0
	for i := 0; i < 4000; i++ {
		b := g.missBody(i)
		if j, dup := seen[string(b)]; dup {
			t.Fatalf("requests %d and %d have identical bodies", j, i)
		}
		seen[string(b)] = i
		req, err := experiments.ParseEvalRequest(b)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if _, err := coding.BuildScheme(req.Scheme); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if isNamed(i) != (req.Workload != "") {
			t.Fatalf("request %d: isNamed=%v but workload=%q", i, isNamed(i), req.Workload)
		}
		if req.Workload != "" {
			named++
			if !req.Quick || req.MaxBusValues != namedMaxValues {
				t.Fatalf("request %d: named request without quick bounds and the fixed value cap", i)
			}
		} else if len(req.Values) != inlineValues {
			t.Fatalf("request %d: %d inline values, want %d", i, len(req.Values), inlineValues)
		}
	}
	if named != 4000/namedEvery {
		t.Errorf("%d named requests in 4000, want %d", named, 4000/namedEvery)
	}
}

func TestWarmUpNeverMatchesTimedNamedRequests(t *testing.T) {
	g := newSeqGen(3, testSchemes, namedSources(workload.Names()))
	warm := map[string]bool{}
	for _, b := range g.warmNamedBodies() {
		req, err := experiments.ParseEvalRequest(b)
		if err != nil {
			t.Fatal(err)
		}
		key, err := experiments.RequestKey(req)
		if err != nil {
			t.Fatal(err)
		}
		warm[key] = true
	}
	for i := namedEvery - 1; i < 20000; i += namedEvery {
		req, err := experiments.ParseEvalRequest(g.missBody(i))
		if err != nil {
			t.Fatal(err)
		}
		key, err := experiments.RequestKey(req)
		if err != nil {
			t.Fatal(err)
		}
		if warm[key] {
			t.Fatalf("timed request %d repeats a warm-up request", i)
		}
	}
}

func TestSequencesFollowTheSeed(t *testing.T) {
	src := namedSources(workload.Names())
	a, b, c := newSeqGen(5, testSchemes, src), newSeqGen(5, testSchemes, src), newSeqGen(6, testSchemes, src)
	for _, i := range []int{0, 1, 7, 100} {
		if !bytes.Equal(a.missBody(i), b.missBody(i)) {
			t.Errorf("seed 5 request %d differs between generators", i)
		}
	}
	if bytes.Equal(a.missBody(0), c.missBody(0)) {
		t.Error("seeds 5 and 6 produced the same first request")
	}
	ha, hb := a.hitSet(), b.hitSet()
	if len(ha) != hitBodies {
		t.Fatalf("hit set holds %d bodies, want %d", len(ha), hitBodies)
	}
	for k := range ha {
		if !bytes.Equal(ha[k], hb[k]) {
			t.Fatalf("hit body %d differs between generators", k)
		}
		if _, err := experiments.ParseEvalRequest(ha[k]); err != nil {
			t.Fatalf("hit body %d: %v", k, err)
		}
	}
	for i := 0; i < 1000; i++ {
		if a.hitIndex(i) != b.hitIndex(i) {
			t.Fatalf("hit order differs at %d", i)
		}
	}
}
