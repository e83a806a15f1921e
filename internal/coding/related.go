package coding

import (
	"fmt"

	"buspower/internal/bus"
)

// This file implements the related-work baselines the paper positions
// itself against (§2): partial bus-invert coding (Shin, Chae & Choi) and a
// workzone-style address-bus coder (Musoll, Lang & Cortadella; extended by
// Aghaghiri et al.'s sector-based encoding). They let the repository
// compare the paper's prediction-based transcoders against the classic
// low-power coding literature on the same traces.

// PartialBusInvert splits the bus into groups, each with its own invert
// wire, and independently complements any group whose flip lowers the
// Λ-weighted cost — the generalization of bus-invert that recovers
// fine-grained savings a single invert decision misses on wide buses.
//
// Wire layout: data wires 0..W-1, then one invert wire per group. Invert
// wires carry absolute polarity (1 = group currently complemented).
type PartialBusInvert struct {
	width         int
	groups        int
	assumedLambda float64
	groupMasks    []bus.Word // group g's data wires
	pairMask      bus.Word   // Mask(width+groups-1): adjacent pairs incl. invert wires
	lambdaInt     uint64     // integral Λ when lambdaIsInt
	lambdaIsInt   bool
	name          string
}

// NewPartialBusInvert builds a partial bus-invert coder with the given
// number of groups (1 group degenerates to classic bus-invert).
func NewPartialBusInvert(width, groups int, assumedLambda float64) (*PartialBusInvert, error) {
	checkWidth(width)
	if groups < 1 || groups > width {
		return nil, fmt.Errorf("coding: partial bus-invert groups %d outside [1, %d]", groups, width)
	}
	if width+groups > bus.MaxWidth {
		return nil, fmt.Errorf("coding: width %d + %d invert wires exceeds %d", width, groups, bus.MaxWidth)
	}
	// Group g spans data bits [g·width/groups, (g+1)·width/groups).
	masks := make([]bus.Word, groups)
	for g := range masks {
		masks[g] = bus.Mask((g+1)*width/groups) &^ bus.Mask(g*width/groups)
	}
	li, ok := intLambda(assumedLambda)
	return &PartialBusInvert{
		width:         width,
		groups:        groups,
		assumedLambda: assumedLambda,
		groupMasks:    masks,
		pairMask:      bus.Mask(width + groups - 1),
		lambdaInt:     li,
		lambdaIsInt:   ok,
		name:          fmt.Sprintf("partial-businvert-%dg", groups),
	}, nil
}

// Name implements Transcoder.
func (t *PartialBusInvert) Name() string { return t.name }

// ConfigKey implements ConfigKeyer: the name omits the width and the
// assumed Λ.
func (t *PartialBusInvert) ConfigKey() string {
	return fmt.Sprintf("%s/w%d/l%g", t.name, t.width, t.assumedLambda)
}

// DataWidth implements Transcoder.
func (t *PartialBusInvert) DataWidth() int { return t.width }

// NewEncoder implements Transcoder.
func (t *PartialBusInvert) NewEncoder() Encoder { return &pbiEncoder{t: t} }

// NewDecoder implements Transcoder.
func (t *PartialBusInvert) NewDecoder() Decoder { return &pbiDecoder{t: t} }

// flipCheaper reports whether moving the bus from state to flipped costs
// strictly less than moving it to plain. Both candidates lie within the
// coded width, so bus.CostMasked equals bus.Cost here, and for integral
// Λ bus.CostMaskedInt orders them identically (see its comment).
func (t *PartialBusInvert) flipCheaper(state, plain, flipped bus.Word) bool {
	if t.lambdaIsInt {
		return bus.CostMaskedInt(state, flipped, t.pairMask, t.lambdaInt) <
			bus.CostMaskedInt(state, plain, t.pairMask, t.lambdaInt)
	}
	return bus.CostMasked(state, flipped, t.pairMask, t.assumedLambda) <
		bus.CostMasked(state, plain, t.pairMask, t.assumedLambda)
}

type pbiEncoder struct {
	t     *PartialBusInvert
	state bus.Word
	ops   OpStats
}

func (e *pbiEncoder) BusWidth() int { return e.t.width + e.t.groups }

func (e *pbiEncoder) Encode(v uint64) bus.Word {
	t := e.t
	e.ops.Cycles++
	e.ops.RawSends++
	// Greedy per-group choice, left to right; each group's decision sees
	// the bus as settled so far, so boundary coupling is accounted.
	cand := e.state
	for g, gm := range t.groupMasks {
		iw := bus.Word(1) << uint(t.width+g)
		keep := cand &^ gm &^ iw
		plain := keep | bus.Word(v)&gm
		flipped := keep | ^bus.Word(v)&gm | iw
		if t.flipCheaper(e.state, plain, flipped) {
			cand = flipped
		} else {
			cand = plain
		}
	}
	e.state = cand
	return cand
}

func (e *pbiEncoder) Reset()       { e.state = 0; e.ops = OpStats{} }
func (e *pbiEncoder) Ops() OpStats { return e.ops }

type pbiDecoder struct {
	t *PartialBusInvert
}

func (d *pbiDecoder) Decode(w bus.Word) uint64 {
	t := d.t
	v := uint64(w & bus.Mask(t.width))
	for g, gm := range t.groupMasks {
		if w&(bus.Word(1)<<uint(t.width+g)) != 0 {
			v ^= uint64(gm)
		}
	}
	return v
}

func (d *pbiDecoder) Reset() {}

// WorkzoneConfig parameterizes the address-bus coder.
type WorkzoneConfig struct {
	// Width is the address width in bits.
	Width int
	// Zones is the number of workzone base registers.
	Zones int
	// MaxDelta bounds the offset reach of a zone hit: addresses within
	// ±MaxDelta of a zone base are sent as low-weight delta codes.
	MaxDelta int
	// Lambda is the assumed Λ for codeword ordering and raw fallbacks.
	Lambda float64
}

// WorkzoneTranscoder exploits the locality of address streams: programs
// touch a few "working zones" (stack, several data structures, code), and
// successive addresses within a zone differ by small deltas. A hit sends a
// low-weight code for the delta; when the hit switches zones, the new
// zone's dedicated wire toggles (staying in the same zone costs no zone
// wire activity — the sector-based refinement of Aghaghiri et al.). A miss
// sends the address raw and installs it over the least recently used zone.
//
// Wire layout: W data wires, the shared 2 control wires of the channel
// protocol for raw escapes, then Z transition-coded zone wires.
type WorkzoneTranscoder struct {
	cfg  WorkzoneConfig
	cb   *Codebook
	name string
}

// NewWorkzone builds a workzone address coder.
func NewWorkzone(cfg WorkzoneConfig) (*WorkzoneTranscoder, error) {
	checkWidth(cfg.Width)
	if cfg.Zones < 1 || cfg.Zones > 8 {
		return nil, fmt.Errorf("coding: workzone zones %d outside [1, 8]", cfg.Zones)
	}
	if cfg.MaxDelta < 1 {
		return nil, fmt.Errorf("coding: workzone max delta %d < 1", cfg.MaxDelta)
	}
	if cfg.Width+2+cfg.Zones > bus.MaxWidth {
		return nil, fmt.Errorf("coding: workzone wires exceed %d", bus.MaxWidth)
	}
	// Codebook indices: 0 = delta 0, then +1, -1, +2, -2, ...
	cb, err := NewCodebook(cfg.Width, 1+2*cfg.MaxDelta, cfg.Lambda)
	if err != nil {
		return nil, err
	}
	return &WorkzoneTranscoder{cfg: cfg, cb: cb, name: fmt.Sprintf("workzone-%dz", cfg.Zones)}, nil
}

// Name implements Transcoder.
func (t *WorkzoneTranscoder) Name() string { return t.name }

// ConfigKey implements ConfigKeyer: the name omits the width, max delta
// and assumed Λ.
func (t *WorkzoneTranscoder) ConfigKey() string {
	return fmt.Sprintf("%s-d%d/w%d/l%g", t.name, t.cfg.MaxDelta, t.cfg.Width, t.cfg.Lambda)
}

// DataWidth implements Transcoder.
func (t *WorkzoneTranscoder) DataWidth() int { return t.cfg.Width }

// NewEncoder implements Transcoder.
func (t *WorkzoneTranscoder) NewEncoder() Encoder {
	return &workzoneEncoder{t: t, st: newWorkzoneState(t.cfg), ch: newChannel(t.cfg.Width, t.cfg.Lambda)}
}

// NewDecoder implements Transcoder.
func (t *WorkzoneTranscoder) NewDecoder() Decoder {
	return &workzoneDecoder{t: t, st: newWorkzoneState(t.cfg), ch: newDecodeChannel(t.cfg.Width)}
}

// deltaIndex maps a signed delta to a codebook index (0 for 0, 1 for +1,
// 2 for -1, ...).
func deltaIndex(d int64) int {
	if d == 0 {
		return 0
	}
	if d > 0 {
		return int(2*d - 1)
	}
	return int(-2 * d)
}

// indexDelta inverts deltaIndex.
func indexDelta(i int) int64 {
	if i == 0 {
		return 0
	}
	if i%2 == 1 {
		return int64(i+1) / 2
	}
	return -int64(i) / 2
}

type workzoneState struct {
	cfg      WorkzoneConfig
	bases    []uint64
	used     []uint64 // LRU stamps
	clock    uint64
	lastZone int // zone of the previous hit (-1 initially / after a miss installs)
}

func newWorkzoneState(cfg WorkzoneConfig) workzoneState {
	return workzoneState{
		cfg:      cfg,
		bases:    make([]uint64, cfg.Zones),
		used:     make([]uint64, cfg.Zones),
		lastZone: -1,
	}
}

// match returns the zone whose base is within MaxDelta of v (smallest
// |delta| wins; ties to the lower zone), or -1.
func (s *workzoneState) match(v uint64) (zone int, delta int64) {
	mask := uint64(bus.Mask(s.cfg.Width))
	best := -1
	var bestAbs int64
	for z := range s.bases {
		d := int64((v - s.bases[z]) & mask)
		// Interpret modularly as signed.
		half := int64(1) << uint(s.cfg.Width-1)
		if d >= half {
			d -= int64(1) << uint(s.cfg.Width)
		}
		abs := d
		if abs < 0 {
			abs = -abs
		}
		if abs <= int64(s.cfg.MaxDelta) && (best < 0 || abs < bestAbs) {
			best, bestAbs, delta = z, abs, d
		}
	}
	return best, delta
}

// hit updates the matched zone's base and recency.
func (s *workzoneState) hit(zone int, v uint64) {
	s.clock++
	s.bases[zone] = v
	s.used[zone] = s.clock
	s.lastZone = zone
}

// miss installs v into the least recently used zone, which becomes the
// current zone (both ends compute the same victim).
func (s *workzoneState) miss(v uint64) {
	s.clock++
	lru := 0
	for z := 1; z < len(s.bases); z++ {
		if s.used[z] < s.used[lru] {
			lru = z
		}
	}
	s.bases[lru] = v
	s.used[lru] = s.clock
	s.lastZone = lru
}

func (s *workzoneState) reset() {
	for i := range s.bases {
		s.bases[i] = 0
		s.used[i] = 0
	}
	s.clock = 0
	s.lastZone = -1
}

type workzoneEncoder struct {
	t   *WorkzoneTranscoder
	st  workzoneState
	ch  channel
	ops OpStats

	// zoneState is the absolute state of the zone wires, which live above
	// the channel's data+control wires; toggling zone wire z flags a hit
	// in zone z.
	zoneState bus.Word
}

// BusWidth: data + 2 control + zone wires.
func (e *workzoneEncoder) BusWidth() int { return e.ch.busWidth() + e.t.cfg.Zones }

func (e *workzoneEncoder) Encode(v uint64) bus.Word {
	t := e.t
	v &= uint64(e.ch.dataMask)
	e.ops.Cycles++
	e.ops.PartialMatches += uint64(t.cfg.Zones)
	zone, delta := e.st.match(v)
	var out bus.Word
	if zone >= 0 {
		e.ops.CodeSends++
		out = e.ch.sendCode(t.cb.Code(deltaIndex(delta)))
		if zone != e.st.lastZone {
			e.zoneState ^= e.zoneWire(zone)
		}
		e.st.hit(zone, v)
	} else {
		e.ops.RawSends++
		e.ops.Shifts++
		out, _ = e.ch.sendRaw(v)
		e.st.miss(v)
	}
	return out | e.zoneState
}

func (e *workzoneEncoder) zoneWire(z int) bus.Word {
	return bus.Word(1) << uint(e.t.cfg.Width+2+z)
}

func (e *workzoneEncoder) Reset() {
	e.st.reset()
	e.ch.reset()
	e.zoneState = 0
	e.ops = OpStats{}
}
func (e *workzoneEncoder) Ops() OpStats { return e.ops }

type workzoneDecoder struct {
	t  *WorkzoneTranscoder
	st workzoneState
	ch decodeChannel

	zoneState bus.Word
}

func (d *workzoneDecoder) Decode(w bus.Word) uint64 {
	t := d.t
	zonesMask := (bus.Mask(t.cfg.Zones)) << uint(t.cfg.Width+2)
	zoneT := (d.zoneState ^ w) & zonesMask
	d.zoneState = w & zonesMask
	mode, payload := d.ch.observe(w &^ zonesMask)
	var v uint64
	switch mode {
	case modeCode:
		zone := d.st.lastZone
		if zoneT != 0 {
			zone = 0
			for zt := zoneT >> uint(t.cfg.Width+2); zt != 1; zt >>= 1 {
				zone++
			}
		}
		if zone < 0 {
			panic("coding: workzone decoder saw a zone hit before any zone was established")
		}
		idx, ok := t.cb.Index(payload)
		if !ok {
			panic(fmt.Sprintf("coding: workzone decoder received non-codeword %#x", payload))
		}
		v = (d.st.bases[zone] + uint64(indexDelta(idx))) & uint64(bus.Mask(t.cfg.Width))
		d.st.hit(zone, v)
	default:
		v = uint64(payload)
		d.st.miss(v)
	}
	return v
}

func (d *workzoneDecoder) Reset() {
	d.st.reset()
	d.ch.reset()
	d.zoneState = 0
}
