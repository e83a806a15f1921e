package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a percentile resting on fewer is an anecdote, not a tail.
const minTail = 10

// sortedCopy returns xs sorted ascending without touching the caller's
// slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count). It panics on an empty slice: every caller
// measures at least once before summarising.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		panic("median of no samples")
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing xs into four groups,
// computed exactly as Python's statistics.quantiles(xs, n=4) does with
// its default "exclusive" method, so spreads printed here match the
// ones an outside checker computes from the same values.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 samples, got %d", len(xs))
	}
	s := sortedCopy(xs)
	ld := len(s)
	m := ld + 1
	const n = 4
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2], nil
}

// relSpread is the interquartile distance as a share of the median: the
// run-to-run noise figure the benchmark's bounds are compared against.
func relSpread(xs []float64) (float64, error) {
	q1, q2, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	if q2 == 0 {
		return math.Inf(1), nil
	}
	return (q3 - q1) / math.Abs(q2), nil
}

// percentileRank returns the 1-based nearest rank of the p-th quantile
// (0 < p <= 1) among n samples, and how many samples lie beyond it.
func percentileRank(n int, p float64) (rank, beyond int) {
	rank = int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank, n - rank
}

// samplesForTail is the smallest sample count whose p-th percentile has
// at least minTail samples beyond it.
func samplesForTail(p float64) int {
	for n := minTail + 1; ; n++ {
		if _, beyond := percentileRank(n, p); beyond >= minTail {
			return n
		}
	}
}

// percentile returns the nearest-rank p-th percentile of xs, refusing
// when fewer than minTail samples lie beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	rank, beyond := percentileRank(len(xs), p)
	if len(xs) == 0 || beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, len(xs), beyond, minTail)
	}
	return sortedCopy(xs)[rank-1], nil
}

// failedFrac is failed operations over attempted ones; an empty run
// counts as wholly failed, never as clean.
func failedFrac(failed, attempted int) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// window is one equal slice of a timed phase.
type window struct {
	from, to      float64 // seconds into the phase
	rps, p50, p99 float64
	steal         float64 // host steal share over the window, -1 if unknown
}

// splitWindows cuts a phase of the given length into k equal windows by
// completion time and returns each window's throughput, median and tail,
// for the windows whose tail rests on enough samples.
func splitWindows(doneAt, lats []float64, elapsed float64, k int, p float64) []window {
	buckets := make([][]float64, k)
	for i, t := range doneAt {
		w := int(t / elapsed * float64(k))
		if w >= k {
			w = k - 1
		}
		buckets[w] = append(buckets[w], lats[i])
	}
	var out []window
	span := elapsed / float64(k)
	for w, b := range buckets {
		q, err := percentile(b, p)
		if err != nil {
			continue
		}
		out = append(out, window{from: float64(w) * span, to: float64(w+1) * span,
			rps: float64(len(b)) / span, p50: median(b), p99: q, steal: -1})
	}
	return out
}

// quietest keeps the windows in which the host stole the least CPU time:
// every window within tol of the quietest one, and at least n. On a
// shared machine, a window in which the hypervisor runs other guests on
// this machine's vCPUs measures the host, not the program; a program's
// own slowdown shows in every window alike. With any window's steal
// unknown, every window is kept.
func quietest(ws []window, n int, tol float64) []window {
	for _, w := range ws {
		if w.steal < 0 {
			return ws
		}
	}
	s := append([]window(nil), ws...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].steal < s[j].steal })
	keep := min(n, len(s))
	for keep < len(s) && s[keep].steal <= s[0].steal+tol {
		keep++
	}
	return s[:keep]
}
