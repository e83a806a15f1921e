package coding

import (
	"fmt"
	"math/bits"
)

// Enumerative (combinatorial-number-system) machinery shared by the
// optimal-codebook scheme families: optmem (Chee/Colbourn's optimal
// memoryless encoding), vc (the Valentini–Chiani optimal scheme),
// lowweight (their practical low-weight codes) and dvs (the Kaul-style
// voltage-scaled variant).
//
// All four map a k-bit data value to the value-th element of the Hamming
// ball around 0 on n = k + r wires, enumerated by weight and then by
// numeric value. Enumerating by weight first is what makes the codebooks
// optimal for their respective channels: low indices — and, for uniform
// data, most indices — land on low-weight words. The codebooks have 2^k
// entries, far too many to tabulate for 32-bit buses, so both directions
// run as binomial-coefficient rank/unrank arithmetic — the adder-chain
// hardware the source constructions propose, and the cost the circuit
// model charges (enumStages) whatever the software below does.
//
// In software every coder reads one shared pair of fixed 64×64 tables,
// binomTab and its cumulative rows ballCum, through masked indices, so
// the loops carry no bounds checks. Unrank walks the wire positions
// without data-dependent branches and stops once the remaining rank is
// 0; rank visits only the set bits. Each encoder (and each grid
// materialize loop) also keeps a wordMemo: the streams the paper studies
// repeat values, and a repeated value skips the unrank entirely.

// enumMaxWires bounds the coded bus width the enumerative coders accept.
// Every ball size is at most 2^n, so n ≤ 62 keeps all rank arithmetic
// comfortably inside uint64 (and inside a bus.Word).
const enumMaxWires = 62

// binomTab[n<<6|k] = C(n, k) for 0 ≤ k ≤ n ≤ enumMaxWires, and 0 for
// k > n — the zero above the diagonal is what lets cwUnrank set every
// remaining wire without a special case once w exceeds the positions
// left. It is flat so that one index carries both the wire position and
// the remaining weight: moving down one position subtracts 64, setting a
// bit one more. ballCum[n][w] = Σ_{i<w} C(n, i) is the first ball index
// of weight class w, saturating at 2^n for w > n. Both hold 64×64
// entries, so an index masked to its low 12 (or 6) bits is provably in
// range.
var binomTab, ballCum = func() (b [64 * 64]uint64, c [64][64]uint64) {
	for n := 0; n <= enumMaxWires; n++ {
		b[n<<6] = 1
		for k := 1; k <= n; k++ {
			b[n<<6|k] = b[(n-1)<<6|(k-1)] + b[(n-1)<<6|k]
		}
		for w := 1; w < 64; w++ {
			c[n][w] = c[n][w-1] + b[n<<6|(w-1)]
		}
	}
	return b, c
}()

// ballSize returns |B(n, t)| = Σ_{i=0..t} C(n, i), the number of n-bit
// words of weight at most t, for n ≤ enumMaxWires.
func ballSize(n, t int) uint64 {
	if t < 0 {
		return 0
	}
	return ballCum[n&63][min(t+1, 63)]
}

// ballRadius returns the minimal t with |B(n, t)| ≥ count — the weight
// bound of a codebook holding count words on n wires.
func ballRadius(n int, count uint64) (int, error) {
	for t := 0; t <= n; t++ {
		if ballSize(n, t) >= count {
			return t, nil
		}
	}
	return 0, fmt.Errorf("coding: %d wires cannot address %d codewords", n, count)
}

// cwUnrank returns the m-th (0-based) n-bit word of weight w in
// increasing numeric order: walking down from position n-1, bit p is set
// iff m ≥ C(p, w) (the C(p, w) words of the remaining class that keep it
// clear come first), and setting it subtracts C(p, w) from m and one
// from w. The walk takes no data-dependent branch: the borrow of m-C(p, w)
// selects the outcome, and the next position's coefficient is loaded for
// both outcomes while this one decides. Once m is 0 the answer is the
// class's smallest word: the low w bits. m must be below C(n, w).
func cwUnrank(n, w int, m uint64) uint64 {
	var word uint64
	bit := uint64(1) << uint(n-1)
	i := uint(n-1)<<6 | uint(w) // binomTab index of C(p, w)
	c := binomTab[i&4095]
	for {
		if m == 0 {
			return word | (1<<(i&63) - 1)
		}
		cClear, cSet := binomTab[(i-64)&4095], binomTab[(i-65)&4095]
		d, borrow := bits.Sub64(m, c, 0)
		take := borrow - 1 // all ones iff m ≥ c
		word |= take & bit
		m = d&take | m&^take
		c = cClear ^ (cClear^cSet)&take
		i -= 65 - uint(borrow)
		bit >>= 1
		if i&63 == 0 || bit == 0 {
			return word
		}
	}
}

// cwRank inverts cwUnrank: the m of a word is Σ C(p, j) over its set
// bits p, the highest carrying its full weight j = w and each lower one
// a weight one less. Only the set bits are visited.
func cwRank(word uint64) uint64 {
	var m uint64
	for w := uint(bits.OnesCount64(word)); word != 0; w-- {
		p := uint(63 - bits.LeadingZeros64(word))
		m += binomTab[(p<<6|w)&4095]
		word &^= 1 << p
	}
	return m
}

// ballUnrank returns the idx-th n-bit word in (weight, then numeric
// value) order: index 0 is the zero word, indices 1..C(n,1) the weight-1
// words, and so on. idx must be below 2^n.
func ballUnrank(n int, idx uint64) uint64 {
	row := &ballCum[n&63]
	w := 0
	for w < n && idx >= row[(w+1)&63] {
		w++
	}
	return cwUnrank(n, w, idx-row[w&63])
}

// ballRank inverts ballUnrank for an n-bit word.
func ballRank(n int, word uint64) uint64 {
	return ballCum[n&63][bits.OnesCount64(word)&63] + cwRank(word)
}

// wordMemo is a fixed 64-entry direct-mapped memo from a data value to
// its coded word (or, for the transition codes, its transition vector).
// The mapping is a pure function of the transcoder, so an entry never
// goes stale and Reset leaves the memo alone; it changes no word and no
// op count (the modelled adder chain still switches every cycle, see
// gridOps). Tags hold value+1 so the zero memo is empty; data values are
// at most 61 bits wide, so the +1 never wraps.
type wordMemo [64]memoEntry

type memoEntry struct{ tag, word uint64 }

// entry returns v's slot, chosen by Fibonacci hashing so strided values
// (addresses, array indices) spread over the slots. The caller checks
// the tag and refills the slot on a miss.
func (m *wordMemo) entry(v uint64) *memoEntry {
	return &m[(v*0x9E3779B97F4A7C15)>>58]
}

// unrank returns ballUnrank(n, v) through the memo.
func (m *wordMemo) unrank(n int, v uint64) uint64 {
	me := m.entry(v)
	if me.tag != v+1 {
		me.tag, me.word = v+1, ballUnrank(n, v)
	}
	return me.word
}

// enumStages is the shared circuit-size model for the enumerative
// coders: an n-wire rank/unrank datapath is a chain of n conditional
// binomial-coefficient adders whose operands are up to n bits wide, so
// its switched capacitance grows ~n² — normalized here to 32-bit adder
// stages (the unit the circuit model prices as one counter increment).
// This is exactly the hardware-cost argument behind the practical
// low-weight construction: splitting the bus into g groups of n/g wires
// cuts the stage count by ~g.
func enumStages(wires int) int {
	return max(1, (wires*wires+31)/32)
}

// enumCheck validates a (data width, coded wires) pair for the
// enumerative coders.
func enumCheck(kind string, width, wires int) error {
	checkWidth(width)
	if wires > enumMaxWires {
		return fmt.Errorf("coding: %s needs %d wires, above the %d-wire bus limit", kind, wires, enumMaxWires)
	}
	if wires <= width {
		return fmt.Errorf("coding: %s with %d wires adds no redundancy over %d data bits", kind, wires, width)
	}
	return nil
}
