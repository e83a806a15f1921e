package coding

import (
	"sort"
	"testing"

	"buspower/internal/bus"
)

// oracleCodebookCodes is NewCodebook's ordering written as a stable sort
// over the candidates in enumeration order: the reference the typed
// unstable sort must reproduce exactly.
func oracleCodebookCodes(width, n int, lambda float64) []bus.Word {
	type cand struct {
		w    bus.Word
		cost float64
	}
	var cands []cand
	add := func(w bus.Word) {
		weight := float64(bus.Weight(w))
		coupling := float64(bus.ExpectedSelfCoupling(w, width)) / 2
		cands = append(cands, cand{w, weight + lambda*coupling})
	}
	for i := 0; i < width; i++ {
		add(bus.Word(1) << uint(i))
	}
	if n > 1+width {
		for i := 0; i < width; i++ {
			for j := i + 1; j < width; j++ {
				add(bus.Word(1)<<uint(i) | bus.Word(1)<<uint(j))
			}
		}
	}
	if n > 1+width+choose2(width) {
		for i := 0; i < width; i++ {
			for j := i + 1; j < width; j++ {
				for k := j + 1; k < width; k++ {
					add(bus.Word(1)<<uint(i) | bus.Word(1)<<uint(j) | bus.Word(1)<<uint(k))
				}
			}
		}
	}
	sort.SliceStable(cands, func(a, b int) bool {
		if cands[a].cost != cands[b].cost {
			return cands[a].cost < cands[b].cost
		}
		return cands[a].w < cands[b].w
	})
	codes := []bus.Word{0}
	for _, c := range cands[:n-1] {
		codes = append(codes, c.w)
	}
	return codes
}

// TestCodebookMatchesStableSortOracle pins NewCodebook to the stable-sort
// ordering at every width, at sizes straddling the weight-class
// boundaries of narrow buses and at each width's maximum size.
func TestCodebookMatchesStableSortOracle(t *testing.T) {
	for width := 1; width <= 62; width++ {
		maxSize := 1 + width + choose2(width) + choose3(width)
		for _, n := range []int{2, 9, 33, 34, 73, maxSize} {
			if n > maxSize {
				continue
			}
			for _, lambda := range []float64{0, 0.5, 1, 2} {
				cb, err := NewCodebook(width, n, lambda)
				if err != nil {
					t.Fatalf("NewCodebook(%d, %d, %g): %v", width, n, lambda, err)
				}
				want := oracleCodebookCodes(width, n, lambda)
				for i, w := range want {
					if got := cb.Code(i); got != w {
						t.Fatalf("NewCodebook(%d, %d, %g).Code(%d) = %#x, stable-sort oracle %#x", width, n, lambda, i, got, w)
					}
					if idx, ok := cb.Index(w); !ok || idx != i {
						t.Fatalf("NewCodebook(%d, %d, %g).Index(%#x) = %d, %v; want %d", width, n, lambda, w, idx, ok, i)
					}
				}
			}
		}
	}
}
