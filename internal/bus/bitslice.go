package bus

import (
	"fmt"
	"math/bits"
)

// SlicedTrace is the transposed (bit-sliced) representation of a value
// trace: plane b is the stream of wire b's values, packed 64 cycles per
// lane word — bit j of plane word k is bit b of value k*64+j. Building
// it costs one 64×64 bit-matrix transpose per block of 64 values; in
// exchange, the per-wire statistics the scalar Meter accumulates
// cycle-by-cycle become whole-word popcounts over the planes (64 cycles
// advance per machine word).
//
// The represented measurement is exactly that of coding.MeasureRawValues:
// power-up in the all-zero state, then one beat per value. Meter is
// differential-tested bit-for-bit against the scalar path.
type SlicedTrace struct {
	width  int
	n      int // values represented
	blocks int // lane words per plane
	last   uint64
	lanes  []uint64 // width planes, plane-major: plane b is lanes[b*blocks:(b+1)*blocks]
}

// NewSlicedTrace transposes the values (masked to width) into planes.
func NewSlicedTrace(width int, values []uint64) *SlicedTrace {
	if width < 1 || width > MaxWidth {
		panic(fmt.Sprintf("bus: invalid sliced trace width %d", width))
	}
	n := len(values)
	blocks := (n + 63) / 64
	s := &SlicedTrace{
		width:  width,
		n:      n,
		blocks: blocks,
		lanes:  make([]uint64, width*blocks),
	}
	mask := uint64(Mask(width))
	if n > 0 {
		s.last = values[n-1] & mask
	}
	var block [64]uint64
	for k := 0; k < blocks; k++ {
		vals := values[k*64 : min(k*64+64, n)]
		// transpose64's bit/index convention yields out[p] bit q =
		// in[63-q] bit (63-p); loading value i at slot 63-i and reading
		// plane b from slot 63-b cancels both reversals (see the
		// derivation on transpose64).
		for i := range block {
			block[i] = 0
		}
		for i, v := range vals {
			block[63-i] = v & mask
		}
		transpose64(&block)
		for b := 0; b < width; b++ {
			s.lanes[b*blocks+k] = block[63-b]
		}
	}
	return s
}

// transpose64 transposes a 64×64 bit matrix in place with the classic
// masked block-swap network (6 rounds of halving block sizes). Under the
// convention "row i = a[i], column j = bit 63-j" each round swaps the two
// off-diagonal sub-blocks, so in raw (index, bit) terms the result is
// out[p] bit q = in[63-q] bit (63-p) — a transpose composed with both
// index and bit reversal, which NewSlicedTrace cancels by reversing its
// loads and stores.
func transpose64(a *[64]uint64) {
	j := 32
	m := uint64(0x00000000FFFFFFFF)
	for j != 0 {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (a[k] ^ (a[k|j] >> uint(j))) & m
			a[k] ^= t
			a[k|j] ^= t << uint(j)
		}
		j >>= 1
		m ^= m << uint(j)
	}
}

// Meter returns a detailed meter (per-wire and per-pair histograms)
// bit-identical to feeding [0, v_0, ..., v_{n-1}] through NewMeter —
// the accounting of coding.MeasureRawValues, histograms included, with
// every per-wire count produced by lane-parallel popcounts.
//
// The transition lane of a plane is t = w ^ ((w << 1) | carry): bit j of
// word k compares cycle k*64+j with its predecessor, the carry threading
// the previous word's top lane across block boundaries and the initial
// all-zero state entering as carry 0 into the first word.
func (s *SlicedTrace) Meter() *Meter {
	m := NewMeter(s.width)
	tail := ^uint64(0)
	if r := s.n & 63; r != 0 {
		tail = (uint64(1) << uint(r)) - 1
	}
	lastBlock := s.blocks - 1
	var transitions, couplings uint64
	// Each adjacent plane pair streams once: the pair pass also counts
	// the lower plane's transitions, and the top plane gets its own pass.
	for b := 0; b+1 < s.width; b++ {
		lo := s.lanes[b*s.blocks : (b+1)*s.blocks]
		hi := s.lanes[(b+1)*s.blocks : (b+2)*s.blocks]
		var carryLo, carryHi uint64
		var tc, sc, oc uint64
		for k := range lo {
			wl, wh := lo[k], hi[k]
			pl := (wl << 1) | carryLo
			ph := (wh << 1) | carryHi
			carryLo = wl >> 63
			carryHi = wh >> 63
			tl := wl ^ pl
			th := wh ^ ph
			single := tl ^ th
			opposite := ((wl &^ pl) & (ph &^ wh)) | ((pl &^ wl) & (wh &^ ph))
			if k == lastBlock {
				tl &= tail
				single &= tail
				opposite &= tail
			}
			tc += uint64(bits.OnesCount64(tl))
			sc += uint64(bits.OnesCount64(single))
			oc += uint64(bits.OnesCount64(opposite))
		}
		transitions += tc
		couplings += sc + 2*oc
		m.perWire[b] = tc
		m.perPair[b] = sc + 2*oc
	}
	// Top plane (or the only plane at width 1): transitions only.
	{
		b := s.width - 1
		plane := s.lanes[b*s.blocks : (b+1)*s.blocks]
		var carry, tc uint64
		for k, w := range plane {
			t := w ^ ((w << 1) | carry)
			carry = w >> 63
			if k == lastBlock {
				t &= tail
			}
			tc += uint64(bits.OnesCount64(t))
		}
		transitions += tc
		m.perWire[b] = tc
	}
	m.started = true
	m.prev = Word(s.last)
	m.cycles = uint64(s.n) + 1
	m.transitions = transitions
	m.couplings = couplings
	return m
}
