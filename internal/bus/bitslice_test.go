package bus

import (
	"math/rand"
	"testing"
)

// scalarMeasure is the reference the sliced path must reproduce exactly:
// power-up at zero, then one beat per value (coding.MeasureRawValues).
func scalarMeasure(width int, values []uint64) *Meter {
	m := NewMeter(width)
	m.Record(0)
	m.RecordValues(values)
	return m
}

func compareMeters(t *testing.T, want, got *Meter) {
	t.Helper()
	if got.Cycles() != want.Cycles() {
		t.Errorf("cycles: got %d want %d", got.Cycles(), want.Cycles())
	}
	if got.Transitions() != want.Transitions() {
		t.Errorf("transitions: got %d want %d", got.Transitions(), want.Transitions())
	}
	if got.Couplings() != want.Couplings() {
		t.Errorf("couplings: got %d want %d", got.Couplings(), want.Couplings())
	}
	if got.State() != want.State() {
		t.Errorf("state: got %#x want %#x", got.State(), want.State())
	}
	if want.Detailed() != got.Detailed() {
		t.Fatalf("detailed: got %v want %v", got.Detailed(), want.Detailed())
	}
	if !want.Detailed() {
		return
	}
	for n := 0; n < want.Width(); n++ {
		if got.WireTransitions(n) != want.WireTransitions(n) {
			t.Errorf("wire %d transitions: got %d want %d", n, got.WireTransitions(n), want.WireTransitions(n))
		}
	}
	for n := 0; n+1 < want.Width(); n++ {
		if got.PairCouplings(n) != want.PairCouplings(n) {
			t.Errorf("pair %d couplings: got %d want %d", n, got.PairCouplings(n), want.PairCouplings(n))
		}
	}
}

func testTraces(width int, rng *rand.Rand) map[string][]uint64 {
	mask := uint64(Mask(width))
	dense := make([]uint64, 1000)
	for i := range dense {
		dense[i] = rng.Uint64() & mask
	}
	sparse := make([]uint64, 1000)
	v := uint64(0)
	for i := range sparse {
		if rng.Intn(8) == 0 {
			v ^= uint64(1) << uint(rng.Intn(width))
		}
		sparse[i] = v & mask
	}
	ramp := make([]uint64, 300)
	for i := range ramp {
		ramp[i] = uint64(i) & mask
	}
	return map[string][]uint64{
		"empty":     nil,
		"one":       {mask},
		"constant":  {3 & mask, 3 & mask, 3 & mask, 3 & mask},
		"len63":     dense[:63],
		"len64":     dense[:64],
		"len65":     dense[:65],
		"len127":    dense[:127],
		"len128":    dense[:128],
		"dense":     dense,
		"sparse":    sparse,
		"ramp":      ramp,
		"unmasked":  {^uint64(0), 0, ^uint64(0), 1},
		"alternate": {mask, 0, mask, 0, mask},
	}
}

func TestSlicedTraceMatchesMeter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, width := range []int{1, 2, 33, 64} {
		for name, trace := range testTraces(width, rng) {
			s := NewSlicedTrace(width, trace)
			if s.n != len(trace) || s.width != width {
				t.Fatalf("w%d/%s: sliced dims %d/%d", width, name, s.n, s.width)
			}
			t.Run(name, func(t *testing.T) {
				compareMeters(t, scalarMeasure(width, trace), s.Meter())
			})
		}
	}
}

func TestSlicedTracePlanes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	width := 33
	trace := make([]uint64, 130)
	for i := range trace {
		trace[i] = rng.Uint64()
	}
	s := NewSlicedTrace(width, trace)
	mask := uint64(Mask(width))
	for b := 0; b < width; b++ {
		plane := s.lanes[b*s.blocks : (b+1)*s.blocks]
		for i, v := range trace {
			want := (v & mask >> uint(b)) & 1
			got := plane[i/64] >> uint(i%64) & 1
			if got != want {
				t.Fatalf("plane %d cycle %d: got %d want %d", b, i, got, want)
			}
		}
	}
}

func FuzzSlicedMeter(f *testing.F) {
	f.Add(uint8(33), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(1), []byte{0xFF, 0x00, 0xFF})
	f.Add(uint8(64), []byte{})
	f.Fuzz(func(t *testing.T, w uint8, data []byte) {
		width := int(w)%MaxWidth + 1
		trace := make([]uint64, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			// Spread the bytes across the word so wide buses exercise
			// high planes too.
			v := uint64(data[i]) | uint64(data[i+1])<<8
			v |= v << 24 << (uint(data[i]) % 16)
			trace = append(trace, v)
		}
		s := NewSlicedTrace(width, trace)
		compareMeters(t, scalarMeasure(width, trace), s.Meter())
	})
}
