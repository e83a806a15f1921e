package coding

import (
	"testing"
	"testing/quick"

	"buspower/internal/bus"
	"buspower/internal/stats"
)

func TestPartialBusInvertRoundTrip(t *testing.T) {
	rng := stats.NewRNG(3)
	for _, groups := range []int{1, 2, 4, 8} {
		pbi, err := NewPartialBusInvert(32, groups, 1)
		if err != nil {
			t.Fatal(err)
		}
		trace := make([]uint64, 2000)
		for i := range trace {
			trace[i] = rng.Uint64() & 0xFFFFFFFF
		}
		if _, err := Evaluate(pbi, trace, 1); err != nil {
			t.Errorf("groups=%d: %v", groups, err)
		}
	}
}

func TestPartialBusInvertQuick(t *testing.T) {
	pbi, err := NewPartialBusInvert(16, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw []uint16) bool {
		trace := make([]uint64, len(raw))
		for i, v := range raw {
			trace[i] = uint64(v)
		}
		_, err := Evaluate(pbi, trace, 1)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPartialBusInvertOneGroupMatchesBusInvert(t *testing.T) {
	// With one group and λ0, per-cycle transitions must respect the
	// classic bus-invert bound: at most ceil((W+1)/2).
	pbi, err := NewPartialBusInvert(32, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	enc := pbi.NewEncoder()
	rng := stats.NewRNG(4)
	prev := enc.Encode(0)
	for i := 0; i < 500; i++ {
		w := enc.Encode(rng.Uint64())
		if d := bus.Weight(prev ^ w); d > 17 {
			t.Fatalf("one-group partial bus-invert produced %d transitions", d)
		}
		prev = w
	}
}

func TestPartialBusInvertBeatsClassicOnMixedTraffic(t *testing.T) {
	// Traffic where the low half repeats and the high half flips: a
	// per-group decision saves what a global decision cannot.
	trace := make([]uint64, 2000)
	for i := range trace {
		lo := uint64(0x0000ABCD)
		hi := uint64(0)
		if i%2 == 0 {
			hi = 0xFFFF0000
		}
		trace[i] = hi | lo
	}
	classic, _ := NewPartialBusInvert(32, 1, 0)
	grouped, _ := NewPartialBusInvert(32, 2, 0)
	rc := MustEvaluate(classic, trace, 0)
	rg := MustEvaluate(grouped, trace, 0)
	if rg.CodedCost() >= rc.CodedCost() {
		t.Errorf("2-group invert (%v) should beat classic (%v) on split traffic", rg.CodedCost(), rc.CodedCost())
	}
}

func TestPartialBusInvertValidation(t *testing.T) {
	if _, err := NewPartialBusInvert(32, 0, 0); err == nil {
		t.Error("0 groups accepted")
	}
	if _, err := NewPartialBusInvert(32, 33, 0); err == nil {
		t.Error("more groups than wires accepted")
	}
	if _, err := NewPartialBusInvert(62, 4, 0); err == nil {
		t.Error("wire budget overflow accepted")
	}
}

func TestWorkzoneRoundTrip(t *testing.T) {
	wz, err := NewWorkzone(WorkzoneConfig{Width: 32, Zones: 4, MaxDelta: 8, Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(5)
	// Address-like traffic: three strided streams plus noise.
	bases := []uint64{0x1000, 0x80000, 0xFFF00}
	offs := make([]uint64, len(bases))
	trace := make([]uint64, 4000)
	for i := range trace {
		if rng.Intn(12) == 0 {
			trace[i] = rng.Uint64() & 0xFFFFFFFF
		} else {
			s := rng.Intn(len(bases))
			offs[s] += uint64(rng.Intn(3)) // deltas 0..2
			trace[i] = bases[s] + offs[s]
		}
	}
	if _, err := Evaluate(wz, trace, 1); err != nil {
		t.Error(err)
	}
}

func TestWorkzoneQuick(t *testing.T) {
	wz, err := NewWorkzone(WorkzoneConfig{Width: 16, Zones: 2, MaxDelta: 4, Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw []uint16) bool {
		trace := make([]uint64, len(raw))
		for i, v := range raw {
			trace[i] = uint64(v)
		}
		_, err := Evaluate(wz, trace, 1)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWorkzoneSequentialAddressesNearFree(t *testing.T) {
	// A sequential address sweep (the best case for workzone coding):
	// after the first miss every beat is a delta-1 hit, costing at most
	// the zone wire plus one data wire per cycle.
	wz, _ := NewWorkzone(WorkzoneConfig{Width: 32, Zones: 2, MaxDelta: 4, Lambda: 1})
	enc := wz.NewEncoder()
	prev := enc.Encode(0x4000)
	for i := 1; i <= 200; i++ {
		w := enc.Encode(uint64(0x4000 + i))
		if d := bus.Weight(prev ^ w); d > 2 {
			t.Fatalf("step %d: sequential address cost %d transitions, want <= 2", i, d)
		}
		prev = w
	}
}

func TestWorkzoneBeatsBusInvertOnAddresses(t *testing.T) {
	// Interleaved strided streams — the traffic pattern zone coding was
	// invented for.
	rng := stats.NewRNG(7)
	trace := make([]uint64, 6000)
	a, b := uint64(0x10000), uint64(0x900000)
	for i := range trace {
		if i%2 == 0 {
			a += 4
			trace[i] = a
		} else {
			b += uint64(rng.Intn(2)) * 4
			trace[i] = b
		}
	}
	wz, _ := NewWorkzone(WorkzoneConfig{Width: 32, Zones: 4, MaxDelta: 8, Lambda: 1})
	bi, _ := NewBusInvert(32, 1)
	rw := MustEvaluate(wz, trace, 1)
	rb := MustEvaluate(bi, trace, 1)
	if rw.EnergyRemoved() <= rb.EnergyRemoved() {
		t.Errorf("workzone (%.3f) should beat bus-invert (%.3f) on strided addresses",
			rw.EnergyRemoved(), rb.EnergyRemoved())
	}
	if rw.EnergyRemoved() < 0.5 {
		t.Errorf("workzone savings on strided addresses suspiciously low: %.3f", rw.EnergyRemoved())
	}
}

func TestWorkzoneLRUReplacement(t *testing.T) {
	wz, _ := NewWorkzone(WorkzoneConfig{Width: 32, Zones: 2, MaxDelta: 2, Lambda: 1})
	enc := wz.NewEncoder().(*workzoneEncoder)
	enc.Encode(0x1000) // miss -> zone
	enc.Encode(0x2000) // miss -> other zone
	enc.Encode(0x1001) // hit zone 0 (refreshes it)
	enc.Encode(0x3000) // miss -> must evict 0x2000's zone (LRU)
	if z, _ := enc.st.match(0x1002); z < 0 {
		t.Error("recently used zone was evicted")
	}
	if z, _ := enc.st.match(0x2001); z >= 0 {
		t.Error("LRU zone survived replacement")
	}
}

func TestDeltaIndexRoundTrip(t *testing.T) {
	for d := int64(-20); d <= 20; d++ {
		if got := indexDelta(deltaIndex(d)); got != d {
			t.Errorf("delta %d -> index %d -> %d", d, deltaIndex(d), got)
		}
	}
	// Indices must be compact: 0..2*max.
	seen := map[int]bool{}
	for d := int64(-5); d <= 5; d++ {
		i := deltaIndex(d)
		if i < 0 || i > 10 || seen[i] {
			t.Errorf("delta %d: bad or duplicate index %d", d, i)
		}
		seen[i] = true
	}
}

func TestWorkzoneValidation(t *testing.T) {
	bad := []WorkzoneConfig{
		{Width: 32, Zones: 0, MaxDelta: 4},
		{Width: 32, Zones: 9, MaxDelta: 4},
		{Width: 32, Zones: 4, MaxDelta: 0},
		{Width: 61, Zones: 4, MaxDelta: 4},
	}
	for _, cfg := range bad {
		cfg.Lambda = 1
		if _, err := NewWorkzone(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// pbiCostOracle is partial bus-invert's per-cycle decision written
// directly against bus.Cost: each group's plain and flipped candidate
// priced over the whole coded width, masks derived per call.
func pbiCostOracle(t *PartialBusInvert, state bus.Word, v uint64) bus.Word {
	w := t.width + t.groups
	cand := state
	for g := 0; g < t.groups; g++ {
		gm := bus.Mask((g+1)*t.width/t.groups) &^ bus.Mask(g*t.width/t.groups)
		iw := bus.Word(1) << uint(t.width+g)
		plain := (cand &^ gm) | (bus.Word(v) & gm)
		plain &^= iw
		flipped := (cand &^ gm) | (^bus.Word(v) & gm)
		flipped |= iw
		if bus.Cost(state, flipped, w, t.assumedLambda) < bus.Cost(state, plain, w, t.assumedLambda) {
			cand = flipped
		} else {
			cand = plain
		}
	}
	return cand
}

// checkPBIDecisions drives one encoder over vals and requires every
// emitted word to equal the bus.Cost oracle's.
func checkPBIDecisions(t *testing.T, width, groups int, lambda float64, vals []uint64) {
	t.Helper()
	pbi, err := NewPartialBusInvert(width, groups, lambda)
	if err != nil {
		t.Fatal(err)
	}
	enc := pbi.NewEncoder()
	var state bus.Word
	for i, v := range vals {
		want := pbiCostOracle(pbi, state, v)
		if got := enc.Encode(v); got != want {
			t.Fatalf("w%d g%d Λ=%g cycle %d: Encode(%#x) = %#x, bus.Cost oracle %#x", width, groups, lambda, i, v, got, want)
		}
		state = want
	}
}

// pbiLambdas covers the integral fast path (0, 1, 2) and the float path
// (0.5, and a non-integral Λ just above 1).
var pbiLambdas = []float64{0, 0.5, 1, 2, 1 + 3.0/1024}

// TestPartialBusInvertMatchesCostOracle pins the hoisted-mask encoder to
// the bus.Cost decision on random traces across widths, group counts and
// both the integral and fractional Λ paths.
func TestPartialBusInvertMatchesCostOracle(t *testing.T) {
	rng := stats.NewRNG(11)
	vals := make([]uint64, 3000)
	for i := range vals {
		switch i % 4 {
		case 0:
			vals[i] = rng.Uint64()
		case 1:
			vals[i] = vals[i-1] ^ 1<<(rng.Uint64()%64) // one-bit change
		default:
			vals[i] = rng.Uint64() & 0xFF00FF
		}
	}
	for _, width := range []int{1, 7, 16, 32, 40} {
		for _, groups := range []int{1, 2, 3, 4, 8} {
			if groups > width {
				continue
			}
			for _, lambda := range pbiLambdas {
				checkPBIDecisions(t, width, groups, lambda, vals)
			}
		}
	}
}

// FuzzPartialBusInvertMatchesCostOracle is the fuzzed form of
// TestPartialBusInvertMatchesCostOracle.
func FuzzPartialBusInvertMatchesCostOracle(f *testing.F) {
	f.Add(uint8(32), uint8(4), []byte("partial bus-invert decisions"))
	f.Add(uint8(16), uint8(3), []byte{0, 0xFF, 0x0F, 0xF0, 0xAA, 0x55})
	f.Fuzz(func(t *testing.T, wb, gb uint8, data []byte) {
		if len(data) == 0 {
			return
		}
		width := 1 + int(wb)%56
		groups := 1 + int(gb)%min(8, width)
		vals := fuzzValues(data)
		for i := range vals {
			vals[i] |= vals[i] << 19 // reach the upper data wires
		}
		for _, lambda := range pbiLambdas {
			checkPBIDecisions(t, width, groups, lambda, vals)
		}
	})
}
