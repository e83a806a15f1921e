package coding

import (
	"cmp"
	"fmt"
	"slices"

	"buspower/internal/bus"
)

// Codebook assigns transition-vector codewords to prediction indices in
// order of increasing energy cost, implementing the assignment policy of
// the paper's Figure 2: the highest-confidence prediction gets the all-zero
// vector (no transitions), the next W predictions get the Hamming-weight-1
// vectors, and further indices get weight-2 (and, if needed, weight-3)
// vectors — each weight class ordered by expected cross-coupling cost so
// that, for Λ > 0, cheaper vectors are handed out first.
type Codebook struct {
	width int
	codes []bus.Word
	index map[bus.Word]int
}

// NewCodebook enumerates the n cheapest transition-vector codewords for a
// data bus of the given width, ranking by weight first and expected
// self-coupling (weighted by lambda) second. It returns an error if n
// exceeds the number of codewords of weight ≤ 3 (more would make for a
// poor transcoder anyway: heavy codes save no energy).
func NewCodebook(width, n int, lambda float64) (*Codebook, error) {
	checkWidth(width)
	if n < 1 {
		return nil, fmt.Errorf("coding: codebook size %d < 1", n)
	}
	max := 1 + width + choose2(width) + choose3(width)
	if n > max {
		return nil, fmt.Errorf("coding: codebook size %d exceeds %d codewords of weight ≤ 3 for width %d", n, max, width)
	}

	// Only the weight classes the codebook reaches are enumerated.
	nc := width
	if n > 1+width {
		nc += choose2(width)
	}
	if n > 1+width+choose2(width) {
		nc += choose3(width)
	}
	type cand struct {
		w    bus.Word
		cost float64
	}
	cands := make([]cand, 0, nc)
	add := func(w bus.Word) {
		weight := float64(bus.Weight(w))
		coupling := float64(bus.ExpectedSelfCoupling(w, width)) / 2
		cands = append(cands, cand{w, weight + lambda*coupling})
	}
	// Weight 1.
	for i := 0; i < width; i++ {
		add(bus.Word(1) << uint(i))
	}
	// Weight 2 (only if needed).
	if n > 1+width {
		for i := 0; i < width; i++ {
			for j := i + 1; j < width; j++ {
				add(bus.Word(1)<<uint(i) | bus.Word(1)<<uint(j))
			}
		}
	}
	// Weight 3 (only if needed).
	if n > 1+width+choose2(width) {
		for i := 0; i < width; i++ {
			for j := i + 1; j < width; j++ {
				for k := j + 1; k < width; k++ {
					add(bus.Word(1)<<uint(i) | bus.Word(1)<<uint(j) | bus.Word(1)<<uint(k))
				}
			}
		}
	}
	// Words are distinct, so (cost, word) is a total order whenever no
	// cost is NaN (Λ is validated finite and non-negative upstream) and
	// the unstable sort yields exactly the stable sort's order.
	slices.SortFunc(cands, func(a, b cand) int {
		if c := cmp.Compare(a.cost, b.cost); c != 0 {
			return c
		}
		return cmp.Compare(a.w, b.w)
	})

	cb := &Codebook{
		width: width,
		codes: make([]bus.Word, n),
		index: make(map[bus.Word]int, n),
	}
	cb.codes[0] = 0 // index 0: the zero vector, reserved for LAST-value.
	cb.index[0] = 0
	for i := 1; i < n; i++ {
		cb.codes[i] = cands[i-1].w
		cb.index[cands[i-1].w] = i
	}
	return cb, nil
}

// mustCodebook is for construction sites where the size is statically
// known to be valid.
func mustCodebook(width, n int, lambda float64) *Codebook {
	cb, err := NewCodebook(width, n, lambda)
	if err != nil {
		panic(err)
	}
	return cb
}

// Size returns the number of codewords.
func (c *Codebook) Size() int { return len(c.codes) }

// Width returns the data-bus width the codebook was built for.
func (c *Codebook) Width() int { return c.width }

// Code returns the transition vector for prediction index i.
func (c *Codebook) Code(i int) bus.Word { return c.codes[i] }

// Index returns the prediction index of a received transition vector and
// whether the vector is a codeword at all.
func (c *Codebook) Index(w bus.Word) (int, bool) {
	i, ok := c.index[w]
	return i, ok
}

func choose2(n int) int { return n * (n - 1) / 2 }
func choose3(n int) int { return n * (n - 1) * (n - 2) / 6 }
