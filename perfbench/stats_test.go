package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{2, 2, 2, 9}, 2},
	} {
		in := append([]float64(nil), c.in...)
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Fatalf("median reordered its input: %v", c.in)
			}
		}
	}
}

// The expected cut points are what Python's statistics.quantiles(xs,
// n=4) prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{2.0, 4.0, 4.0, 5.0, 7.0, 9.0, 9.5, 11.0}, 4.0, 6.0, 9.375},
	} {
		q1, q2, q3, err := quartiles(c.in)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample succeeded")
	}
}

func TestRelSpread(t *testing.T) {
	s, err := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := (8.25 - 2.75) / 5.5; math.Abs(s-want) > 1e-12 {
		t.Errorf("relSpread = %v, want %v", s, want)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	if n := samplesForTail(0.99); n != 1000 {
		t.Errorf("samplesForTail(0.99) = %d, want 1000", n)
	}
	if n := samplesForTail(0.5); n != 20 {
		t.Errorf("samplesForTail(0.5) = %d, want 20", n)
	}
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Error("p99 of 999 samples accepted with only 9 beyond it")
	}
	xs = append(xs, 1000)
	got, err := percentile(xs, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if rank, beyond := percentileRank(1000, 0.99); rank != 990 || beyond != 10 {
		t.Errorf("percentileRank(1000, 0.99) = %d, %d; want 990, 10", rank, beyond)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples succeeded")
	}
}

func TestFailedFrac(t *testing.T) {
	for _, c := range []struct {
		failed, attempted int
		want              float64
	}{
		{0, 10, 0},
		{1, 4, 0.25},
		{3, 3, 1},
		{0, 0, 1}, // nothing attempted is a failed run, not a clean one
	} {
		if got := failedFrac(c.failed, c.attempted); got != c.want {
			t.Errorf("failedFrac(%d, %d) = %v, want %v", c.failed, c.attempted, got, c.want)
		}
	}
}

func TestSplitWindows(t *testing.T) {
	// 4000 requests over 4 s: the first two seconds at 1 ms, the last two
	// at 9 ms, so the windows differ and the median ignores neither half.
	var done, lats []float64
	for i := 0; i < 4000; i++ {
		done = append(done, float64(i)/1000)
		l := 0.001
		if i >= 2000 {
			l = 0.009
		}
		lats = append(lats, l)
	}
	ws := splitWindows(done, lats, 4, 4, 0.99)
	if len(ws) != 4 {
		t.Fatalf("got %d windows, want 4", len(ws))
	}
	for i, w := range ws {
		if w.rps != 1000 {
			t.Errorf("window %d rps = %v, want 1000", i, w.rps)
		}
		want := 0.001
		if i >= 2 {
			want = 0.009
		}
		if w.p99 != want || w.p50 != want {
			t.Errorf("window %d p50, p99 = %v, %v, want %v", i, w.p50, w.p99, want)
		}
	}
	// Windows whose tail rests on fewer than ten samples are dropped.
	if ws := splitWindows(done[:1500], lats[:1500], 1.5, 3, 0.99); len(ws) != 0 {
		t.Errorf("500-sample windows kept a p99: %v", ws)
	}
}

func TestQuietest(t *testing.T) {
	ws := []window{
		{p99: 5, steal: 0.30},
		{p99: 1, steal: 0.000},
		{p99: 4, steal: 0.20},
		{p99: 2, steal: 0.02},
		{p99: 3, steal: 0.05},
	}
	got := quietest(ws, 3, 0.01)
	if len(got) != 3 {
		t.Fatalf("kept %d of 5 windows, want 3", len(got))
	}
	for i, want := range []float64{1, 2, 3} {
		if got[i].p99 != want {
			t.Errorf("kept window %d has p99 %v, want %v", i, got[i].p99, want)
		}
	}
	if ws[0].p99 != 5 {
		t.Error("quietest reordered its input")
	}
	// Windows as quiet as the quietest, within the tolerance, all count:
	// on a quiet host the figures rest on the whole phase.
	if got := quietest(ws, 3, 0.06); len(got) != 3 {
		t.Errorf("tolerance 0.06 kept %d windows, want 3", len(got))
	}
	if got := quietest(ws, 2, 0.06); len(got) != 3 {
		t.Errorf("tolerance 0.06 with n=2 kept %d windows, want 3", len(got))
	}
	if got := quietest(ws, 3, 1); len(got) != len(ws) {
		t.Errorf("tolerance 1 kept %d of %d windows", len(got), len(ws))
	}
	if got := quietest(ws, 9, 0); len(got) != len(ws) {
		t.Errorf("asking for more windows than exist kept %d of %d", len(got), len(ws))
	}
	// Unknown steal keeps every window rather than guessing.
	ws[2].steal = -1
	if got := quietest(ws, 3, 0.01); len(got) != len(ws) {
		t.Errorf("with unknown steal kept %d of %d windows", len(got), len(ws))
	}
}
