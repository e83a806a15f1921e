package coding

import (
	"fmt"
	"testing"
)

// windowFamilyCells builds one window family (shared width and assumed
// Λ, varying register size), one cell per size.
func windowFamilyCells(t testing.TB, width int, sizes []int, lambda float64) []GridCell {
	t.Helper()
	cells := make([]GridCell, 0, len(sizes))
	for _, n := range sizes {
		w, err := NewWindow(width, n, lambda)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, GridCell{T: w, Lambda: lambda})
	}
	return cells
}

// TestWindowNonInclusion documents why the family pass keeps exact
// per-size rings instead of deriving small registers from the largest
// one's probe record: FIFO insert-on-miss dictionaries lack the
// inclusion property. After a b c d a b e a b c d, the value e HITS the
// 3-entry register while MISSING the 4-entry one — so no per-cycle
// record of the superset register can reconstruct a subset's answers.
func TestWindowNonInclusion(t *testing.T) {
	const width = 8
	seq := []uint64{1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4}
	enc3 := mustWindowEncoder(t, width, 3)
	enc4 := mustWindowEncoder(t, width, 4)
	for _, v := range seq {
		enc3.Encode(v)
		enc4.Encode(v)
	}
	b3, b4 := enc3.ops, enc4.ops
	enc3.Encode(5)
	enc4.Encode(5)
	if enc3.ops.CodeSends != b3.CodeSends+1 {
		t.Fatalf("3-entry register should hit on the final value (ops %+v → %+v)", b3, enc3.ops)
	}
	if enc4.ops.RawSends != b4.RawSends+1 {
		t.Fatalf("4-entry register should miss on the final value (ops %+v → %+v)", b4, enc4.ops)
	}
}

func mustWindowEncoder(t testing.TB, width, entries int) *windowEncoder {
	t.Helper()
	w, err := NewWindow(width, entries, 1)
	if err != nil {
		t.Fatal(err)
	}
	return w.NewEncoder().(*windowEncoder)
}

// TestWindowFamilyMatchesScalar is the batch-engine differential: every
// family member's meter and OpStats must be bit-identical to a scalar
// Evaluate of that member alone, across widths, register-size sets,
// integral and fractional assumed Λ, verify policies, and traces that
// hit the fresh-zero, all-miss and all-hit regimes.
func TestWindowFamilyMatchesScalar(t *testing.T) {
	traces := map[string][]uint64{
		"mixed": gridTestTrace(16, 3000, 7),
		"short": gridTestTrace(16, 97, 3), // shorter than the verify head window
		"zeros": make([]uint64, 500),      // fresh-zero LAST hits throughout
		"stride": func() []uint64 {
			v := make([]uint64, 600)
			for i := range v {
				v[i] = uint64(i * 3)
			}
			return v
		}(),
		"reuse": func() []uint64 {
			v := make([]uint64, 800)
			for i := range v {
				v[i] = uint64(i % 7 * 1000)
			}
			return v
		}(),
	}
	families := []struct {
		width  int
		sizes  []int
		lambda float64
	}{
		{16, []int{2, 3}, 1},
		{16, []int{2, 4, 8, 12, 16, 24, 32, 48, 64}, 1},
		{16, []int{4, 8, 32}, 3},
		{8, []int{3, 5, 9}, 0},
		{16, []int{8, 16}, 2.5}, // fractional Λ: float raw-cost path
		{32, []int{2, 8, 64, 128}, 1},
	}
	for tname, trace := range traces {
		for _, fam := range families {
			for _, verify := range []VerifyPolicy{VerifySampled(64), VerifyOff} {
				label := fmt.Sprintf("%s/w%d%v/l%g/%s", tname, fam.width, fam.sizes, fam.lambda, verify)
				cells := windowFamilyCells(t, fam.width, fam.sizes, fam.lambda)
				got, err := EvaluateGrid(cells, trace, nil, verify)
				if err != nil {
					t.Fatal(err)
				}
				for i, c := range cells {
					var ev Evaluator
					ev.Verify = verify
					ev.Use(c.T)
					want, err := ev.Evaluate(trace, c.Lambda, nil)
					if err != nil {
						t.Fatal(err)
					}
					compareGridResult(t, label+"/"+c.T.Name(), want, got[i])
				}
			}
		}
	}
}

// TestWindowFamilyFullVerifyFallsBack pins the scalar-fallback trigger:
// under VerifyFull the family pass must step aside (a live decoder must
// observe every coded word) and results still match scalar evaluation.
func TestWindowFamilyFullVerifyFallsBack(t *testing.T) {
	trace := gridTestTrace(16, 1500, 21)
	cells := windowFamilyCells(t, 16, []int{2, 8, 32}, 1)
	got, err := EvaluateGrid(cells, trace, nil, VerifyFull)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		var ev Evaluator
		ev.Verify = VerifyFull
		ev.Use(c.T)
		want, err := ev.Evaluate(trace, c.Lambda, nil)
		if err != nil {
			t.Fatal(err)
		}
		compareGridResult(t, c.T.Name(), want, got[i])
	}
}

// TestWindowFamilyInMixedGrid runs the family inside a grid that also
// carries stride, stateless, inversion and context cells, so the router
// proves it only intercepts family members.
func TestWindowFamilyInMixedGrid(t *testing.T) {
	const width = 16
	trace := gridTestTrace(width, 2000, 13)
	cells := gridTestCells(t, width)
	cells = append(cells, windowFamilyCells(t, width, []int{4, 16, 64}, 1)...)
	for _, verify := range []VerifyPolicy{VerifySampled(64), VerifyOff} {
		got, err := EvaluateGrid(cells, trace, nil, verify)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cells {
			var ev Evaluator
			ev.Verify = verify
			ev.Use(c.T)
			want, err := ev.Evaluate(trace, c.Lambda, nil)
			if err != nil {
				t.Fatal(err)
			}
			compareGridResult(t, c.T.Name(), want, got[i])
		}
	}
}

// TestEvaluateBatchMatchesGrid: the multi-trace fan-out must be
// trace-major and bit-identical to independent EvaluateGrid calls, with
// shared scratch never leaking state between traces.
func TestEvaluateBatchMatchesGrid(t *testing.T) {
	const width = 16
	cells := gridTestCells(t, width)
	cells = append(cells, windowFamilyCells(t, width, []int{4, 8, 32}, 1)...)
	traces := []BatchTrace{
		{Values: gridTestTrace(width, 2000, 1)},
		{Values: gridTestTrace(width, 1500, 2)},
		{Values: make([]uint64, 300)},
		{Values: gridTestTrace(width, 2000, 1)}, // repeat of trace 0: same answers
	}
	traces[1].Raw = MeasureRawValues(width, traces[1].Values)
	verify := VerifySampled(64)
	got, err := EvaluateBatch(cells, traces, verify)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(traces) {
		t.Fatalf("got %d trace results for %d traces", len(got), len(traces))
	}
	for ti, tr := range traces {
		want, err := EvaluateGrid(cells, tr.Values, tr.Raw, verify)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cells {
			compareGridResult(t, fmt.Sprintf("trace%d/%s", ti, c.T.Name()), want[i], got[ti][i])
		}
	}
	if got[1][0].Raw != traces[1].Raw {
		t.Error("pre-measured raw meter was not adopted")
	}
}

// TestStrideTapeFollowsTraceContent: the stride-tape cache keys on the
// caller's trace identity, never on the backing array, so a trace
// mutated in place between grids is never metered off a stale tape.
func TestStrideTapeFollowsTraceContent(t *testing.T) {
	trace := gridTestTrace(32, 4096, 9)
	st, err := NewStride(32, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cells := []GridCell{{T: st, Lambda: 1}}
	check := func(label string, got Result) {
		t.Helper()
		want, err := Evaluate(st, trace, 1)
		if err != nil {
			t.Fatal(err)
		}
		compareGridResult(t, label, want, got)
	}
	grid := func(label string) {
		t.Helper()
		got, err := EvaluateGrid(cells, trace, nil, VerifyOff)
		if err != nil {
			t.Fatal(err)
		}
		check(label, got[0])
	}
	keyed := func(label string, id any) {
		t.Helper()
		got, err := EvaluateBatch(cells, []BatchTrace{{Values: trace, ID: id}}, VerifyOff)
		if err != nil {
			t.Fatal(err)
		}
		check(label, got[0][0])
	}
	grid("grid before mutation")
	keyed("keyed before mutation", "TestStrideTapeFollowsTraceContent/v1")
	for i := range trace {
		trace[i] = trace[i]*0x9E3779B97F4A7C15 + uint64(i)
	}
	grid("grid after mutation")
	before := tapeMemo.Stats()
	keyed("keyed after mutation", "TestStrideTapeFollowsTraceContent/v2")
	keyed("keyed after mutation, cached", "TestStrideTapeFollowsTraceContent/v2")
	after := tapeMemo.Stats()
	if after.Misses-before.Misses != 1 || after.Hits-before.Hits != 1 {
		t.Errorf("tape cache under a new identity: %d misses / %d hits, want 1 / 1",
			after.Misses-before.Misses, after.Hits-before.Hits)
	}
}

// TestEvaluateBatchSelectsCells: a trace's Cells subset evaluates only
// those cells (others stay zero) and counts only their cycles.
func TestEvaluateBatchSelectsCells(t *testing.T) {
	const width = 16
	trace := gridTestTrace(width, 900, 13)
	cells := gridTestCells(t, width)
	want, err := EvaluateGrid(cells, trace, nil, VerifySampled(64))
	if err != nil {
		t.Fatal(err)
	}
	sel := []int{0, 2, 5, 6, len(cells) - 1}
	before := EvaluatedCycles()
	got, err := EvaluateBatch(cells, []BatchTrace{{Values: trace, Cells: sel}}, VerifySampled(64))
	if err != nil {
		t.Fatal(err)
	}
	if n := EvaluatedCycles() - before; n != uint64(len(sel)*len(trace)) {
		t.Errorf("EvaluatedCycles delta %d, want %d", n, len(sel)*len(trace))
	}
	picked := map[int]bool{}
	for _, i := range sel {
		picked[i] = true
		compareGridResult(t, cells[i].T.Name(), want[i], got[0][i])
	}
	for i := range cells {
		if !picked[i] && got[0][i].Coded != nil {
			t.Errorf("unselected cell %d was evaluated", i)
		}
	}
	if _, err := EvaluateBatch(cells, []BatchTrace{{Values: trace, Cells: []int{len(cells)}}}, VerifyOff); err == nil {
		t.Error("out-of-range cell selection must fail")
	}
}

// FuzzWindowFamilyMatchesScalar fuzzes (trace, family-spec) pairs
// through the batch pass and pins every member to scalar Evaluate.
func FuzzWindowFamilyMatchesScalar(f *testing.F) {
	f.Add(uint16(0), []byte{1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5})
	f.Add(uint16(0xFFFF), []byte{0, 0, 0, 7, 7, 9})
	f.Add(uint16(0x1234), []byte{250, 250, 1, 250, 2, 250, 3, 250})
	f.Fuzz(func(t *testing.T, spec uint16, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		width := 4 + int(spec&7)                       // 4..11
		lambda := []float64{0, 1, 2, 1.5}[(spec>>3)&3] // incl. fractional
		allSizes := []int{2, 3, 4, 6, 8, 12, 16, 24}
		var sizes []int
		for i, n := range allSizes {
			if spec>>(5+uint(i))&1 == 1 {
				sizes = append(sizes, n)
			}
		}
		if len(sizes) < 2 {
			sizes = []int{2, 8}
		}
		trace := make([]uint64, len(data))
		for i, b := range data {
			trace[i] = uint64(b) * 0x0101
		}
		verify := VerifySampled(16)
		if spec&0x8000 != 0 {
			verify = VerifyOff
		}
		// Keep only sizes whose codebook exists at this width; narrow
		// widths cannot host the larger registers.
		var cells []GridCell
		for _, n := range sizes {
			w, err := NewWindow(width, n, lambda)
			if err != nil {
				continue
			}
			cells = append(cells, GridCell{T: w, Lambda: lambda})
		}
		if len(cells) < 2 {
			t.Skip("family too small at this width")
		}
		got, err := EvaluateGrid(cells, trace, nil, verify)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cells {
			var ev Evaluator
			ev.Verify = verify
			ev.Use(c.T)
			want, err := ev.Evaluate(trace, c.Lambda, nil)
			if err != nil {
				t.Fatal(err)
			}
			compareGridResult(t, c.T.Name(), want, got[i])
		}
	})
}
