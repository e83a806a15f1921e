package coding

import (
	"fmt"
	"sync/atomic"

	"buspower/internal/bus"
	"buspower/internal/memo"
)

// Grid evaluation: a set of scheme/λ cells against a suite of traces in
// grouped passes. EvaluateBatch is the one engine; EvaluateGrid (one
// trace) and Evaluate (one cell) are spellings of it. Per trace the
// savings stack in these layers, each an internal choice of the engine:
//
//   - λ fan-out: activity meters are Λ-independent (Λ enters only when a
//     Result's Cost is read), so grid cells that share a transcoder
//     configuration (ConfigKey) are encoded once and read at every
//     requested Λ. Figure 15's λ0/λ1 families collapse from one encode
//     per (assumed, actual) pair to one per assumed Λ.
//   - window families: Window configurations that differ only in
//     register size share one encode pass (see batch.go).
//   - shared stride tape: every stride bank size replays one prediction
//     tape computed in a single pass (see strideTape), cached across
//     calls under the trace's identity.
//
// Everything else runs through the scalar Evaluator, still profiting
// from the ConfigKey dedupe. Results are bit-identical to evaluating
// each cell individually (differential-tested by grid_test.go).

// GridCell is one evaluation request: a transcoder read at coupling
// ratio Lambda.
type GridCell struct {
	T      Transcoder
	Lambda float64
}

// evaluatedCycles counts (trace cycle × grid cell) units delivered by
// the engine process-wide. Grouped passes deliver more cycles than they
// execute — that efficiency is exactly what the bench suite's
// throughput line measures.
var evaluatedCycles atomic.Uint64

// EvaluatedCycles returns the process-wide count of evaluation cycles
// delivered: one unit per trace cycle per evaluated grid cell (a plain
// Evaluate counts as a one-cell grid). The bench harness differences
// this around a suite pass to report suite-level throughput.
func EvaluatedCycles() uint64 { return evaluatedCycles.Load() }

// EvaluateGrid is EvaluateBatch over the one trace, with its optional
// pre-measured raw meter. The trace has no identity, so nothing derived
// from it is cached across calls.
func EvaluateGrid(cells []GridCell, trace []uint64, raw *bus.Meter, verify VerifyPolicy) ([]Result, error) {
	out, err := EvaluateBatch(cells, []BatchTrace{{Values: trace, Raw: raw}}, verify)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// tapeKey names a cached stride tape: the caller's trace identity, the
// data width and the bank depth.
type tapeKey struct {
	id    any
	width int
	depth int
}

// tapeMemo caches stride tapes across calls (one byte per cycle each),
// so repeated stride requests on a named trace skip the prediction pass.
var tapeMemo = memo.New[tapeKey, *strideTape](64)

// ClearStrideTapeCache drops every cached stride tape.
func ClearStrideTapeCache() { tapeMemo.Reset() }

// strideTapeFor returns a stride tape for the trace, cached under its
// identity when it has one.
func strideTapeFor(id any, width, maxK int, trace []uint64) *strideTape {
	if id == nil {
		return buildStrideTape(width, maxK, trace)
	}
	tp, _ := tapeMemo.Do(tapeKey{id: id, width: width, depth: maxK}, func() (*strideTape, error) {
		return buildStrideTape(width, maxK, trace), nil
	})
	return tp
}

// evaluate is the engine body for one trace: the cells bt selects, or
// all of them. sc persists Evaluator scratch and window-family arenas
// between traces; a zero gridScratch is ready to use.
func (sc *gridScratch) evaluate(cells []GridCell, bt *BatchTrace, verify VerifyPolicy) ([]Result, error) {
	if len(cells) == 0 {
		return nil, nil
	}
	trace := bt.Values
	results := make([]Result, len(cells))
	type group struct {
		key   string
		t     Transcoder
		cells []int
	}
	selected := len(cells)
	if bt.Cells != nil {
		selected = len(bt.Cells)
	}
	groups := make(map[string]*group, selected)
	order := make([]*group, 0, selected)
	for j := 0; j < selected; j++ {
		i := j
		if bt.Cells != nil {
			if i = bt.Cells[j]; i < 0 || i >= len(cells) {
				return nil, fmt.Errorf("coding: batch trace selects cell %d of %d", i, len(cells))
			}
		}
		t := cells[i].T
		if t == nil {
			return nil, fmt.Errorf("coding: grid cell %d has no transcoder", i)
		}
		key := ConfigKey(t)
		g := groups[key]
		if g == nil {
			g = &group{key: key, t: t}
			groups[key] = g
			order = append(order, g)
		}
		g.cells = append(g.cells, i)
	}

	rawMeters := make(map[int]*bus.Meter, 1)
	if bt.Raw != nil {
		rawMeters[bt.Raw.Width()] = bt.Raw
	}
	rawFor := func(width int) *bus.Meter {
		if m := rawMeters[width]; m != nil {
			return m
		}
		m := MeasureRawValues(width, trace)
		rawMeters[width] = m
		return m
	}
	// Window families: configurations differing only in register size
	// share one encode pass (see batch.go). Results land keyed by the
	// member's ConfigKey and are picked up by the per-group loop below.
	var famRes map[string]famResult
	if verify.mode != verifyFull {
		type famGroup struct {
			ts   []*WindowTranscoder
			keys []string
		}
		var byFam map[string]*famGroup
		var famOrder []string
		for _, g := range order {
			wt, ok := g.t.(*WindowTranscoder)
			if !ok {
				continue
			}
			fk := fmt.Sprintf("w%d/l%g", wt.width, wt.lambda)
			if byFam == nil {
				byFam = make(map[string]*famGroup, 1)
			}
			fg := byFam[fk]
			if fg == nil {
				fg = &famGroup{}
				byFam[fk] = fg
				famOrder = append(famOrder, fk)
			}
			fg.ts = append(fg.ts, wt)
			fg.keys = append(fg.keys, g.key)
		}
		for _, fk := range famOrder {
			fg := byFam[fk]
			sizes := famSizes(fg.ts)
			if len(fg.ts) < 2 || sizes == nil {
				continue // singleton (or aliased sizes): scalar path is as good
			}
			sig := fk + fmt.Sprint(sizes)
			fam := sc.family(sig, fg.ts)
			rs, err := fam.run(trace, verify)
			if err != nil {
				return nil, err
			}
			if famRes == nil {
				famRes = make(map[string]famResult, len(fam.ts))
			}
			for j, t := range fam.ts {
				famRes[ConfigKey(t)] = rs[j]
			}
		}
	}

	// One shared stride tape per data width, deep enough for the largest
	// bank in the grid.
	var tapes map[int]*strideTape
	if verify.mode != verifyFull {
		var maxK map[int]int
		for _, g := range order {
			if st, ok := g.t.(*StrideTranscoder); ok && st.strides <= tapeMaxStrides && st.strides > maxK[st.width] {
				if maxK == nil {
					maxK = make(map[int]int, 1)
				}
				maxK[st.width] = st.strides
			}
		}
		if maxK != nil {
			tapes = make(map[int]*strideTape, len(maxK))
			for w, k := range maxK {
				tapes[w] = strideTapeFor(bt.ID, w, k, trace)
			}
		}
	}

	ev := &sc.ev
	ev.Verify = verify
	n := uint64(len(trace))
	for _, g := range order {
		width := g.t.DataWidth()
		rawM := rawFor(width)
		var coded *bus.Meter
		var ops OpStats
		var codedWidth int
		fast := false
		// famRes and tapes stay empty under VerifyFull.
		if fr, ok := famRes[g.key]; ok {
			coded, ops, codedWidth, fast = fr.coded, fr.ops, width+2, true
		} else if t, ok := g.t.(*StrideTranscoder); ok {
			if tp := tapes[t.width]; tp != nil && t.strides <= tp.maxK {
				m, o, err := tp.evaluate(t, trace, verify)
				if err != nil {
					return nil, err
				}
				coded, ops, codedWidth, fast = m, o, t.width+2, true
			}
		}
		if !fast {
			ev.Use(g.t)
			res, err := ev.Evaluate(trace, cells[g.cells[0]].Lambda, rawM)
			if err != nil {
				return nil, err
			}
			// Detach from the Evaluator's reused meter before the next group.
			coded = res.Coded.Clone()
			ops = res.Ops
			codedWidth = res.CodedWidth
			evaluatedCycles.Add(n * uint64(len(g.cells)-1)) // Evaluate counted one cell
		} else {
			evaluatedCycles.Add(n * uint64(len(g.cells)))
		}
		name := g.t.Name()
		for _, ci := range g.cells {
			results[ci] = Result{
				Scheme:     name,
				DataWidth:  width,
				CodedWidth: codedWidth,
				Raw:        rawM,
				Coded:      coded,
				Lambda:     cells[ci].Lambda,
				Ops:        ops,
			}
		}
	}
	return results, nil
}

// tapeMaxStrides bounds the bank depth a uint8 tape record can encode;
// deeper banks (which no experiment uses) fall back to the scalar path.
const tapeMaxStrides = 250

// tapeRawRec marks a cycle no stride predicted.
const tapeRawRec = 0xFF

// strideTape is the shared prediction record behind the grid's stride
// fan-out. The stride history ring is pushed unconditionally with every
// masked input value, so its contents — and therefore each stride-k
// prediction p_k(i) = (2·v[i-k] − v[i-2k]) mod 2^width, zero-padded
// before the trace starts — are identical across all bank sizes K. One
// pass records, per cycle, the minimal stride whose prediction matches
// (0 for a LAST-value hit, tapeRawRec for none); a size-K bank then
// replays the tape: record m = 0 sends code 0, 1 ≤ m ≤ K sends the
// bank's code for stride m (probing m predictors on the way), and
// anything deeper falls back to raw after probing all K.
type strideTape struct {
	width int
	maxK  int
	recs  []uint8
	hist  []uint64 // hist[0] = LAST hits, hist[m] = cycles with minimal stride m
	raws  uint64   // cycles with no match at any stride ≤ maxK
}

func buildStrideTape(width, maxK int, trace []uint64) *strideTape {
	tp := &strideTape{
		width: width,
		maxK:  maxK,
		recs:  make([]uint8, len(trace)),
		hist:  make([]uint64, maxK+1),
	}
	mask := uint64(bus.Mask(width))
	var prev uint64
	for i, v := range trace {
		v &= mask
		if v == prev {
			tp.hist[0]++
			prev = v
			continue // recs[i] already 0
		}
		rec := uint8(tapeRawRec)
		for k := 1; k <= maxK; k++ {
			var a, b uint64
			if j := i - k; j >= 0 {
				a = trace[j] & mask
			}
			if j := i - 2*k; j >= 0 {
				b = trace[j] & mask
			}
			if (a+(a-b))&mask == v {
				rec = uint8(k)
				break
			}
		}
		if rec == tapeRawRec {
			tp.raws++
		} else {
			tp.hist[rec]++
		}
		tp.recs[i] = rec
		prev = v
	}
	return tp
}

// evaluate replays the tape as a size-t.strides bank, producing the
// coded-bus meter and OpStats bit-identical to the scalar
// strideEncoder run (grid_test.go differentials).
func (tp *strideTape) evaluate(t *StrideTranscoder, trace []uint64, verify VerifyPolicy) (*bus.Meter, OpStats, error) {
	ch := newChannel(t.width, t.lambda)
	coded := bus.NewMeterLite(ch.busWidth())
	stream := coded.Stream()
	st := &stream
	st.Record(0)
	mask := uint64(ch.dataMask)
	K := uint8(t.strides)
	codes := make([]bus.Word, t.strides+1)
	for m := 1; m <= t.strides; m++ {
		codes[m] = t.cb.Code(m)
	}
	recs := tp.recs
	n := len(trace)
	replay := func(i int) bus.Word {
		rec := recs[i]
		switch {
		case rec == 0:
			return ch.sendCode(0)
		case rec <= K:
			return ch.sendCode(codes[rec])
		default:
			w, _ := ch.sendRaw(trace[i] & mask)
			return w
		}
	}
	head := 0
	if verify.mode == verifySampled {
		head = min(VerifyWindow, n)
		dec := t.NewDecoder()
		for i := 0; i < head; i++ {
			w := replay(i)
			v := trace[i] & mask
			if got := dec.Decode(w); got != v {
				return nil, OpStats{}, fmt.Errorf("coding: %s decoder diverged at cycle %d: sent %#x, decoded %#x", t.Name(), i, v, got)
			}
			st.Record(w)
		}
	}
	ch.beginBlock()
	for i := head; i < n; i++ {
		rec := recs[i]
		switch {
		case rec == 0:
			// LAST hit: the all-zero code moves nothing.
		case rec <= K:
			ch.sendCode(codes[rec])
		default:
			ch.sendRaw(trace[i] & mask)
		}
	}
	st.AddBlock(uint64(n-head), ch.accT, ch.accC, ch.state)
	st.Flush()
	if verify.mode == verifySampled {
		if err := replaySampledFresh(t, trace, verify); err != nil {
			return nil, OpStats{}, err
		}
	}
	// OpStats from the tape's minimal-stride histogram: a size-K bank
	// code-sends every minimal stride ≤ K (probing m predictors), raw-sends
	// the rest (probing all K), and LAST hits probe nothing.
	ops := OpStats{Cycles: uint64(n), LastHits: tp.hist[0]}
	var codeSends, probes uint64
	for m := 1; m <= t.strides; m++ {
		codeSends += tp.hist[m]
		probes += tp.hist[m] * uint64(m)
	}
	rawSends := tp.raws
	for m := t.strides + 1; m <= tp.maxK; m++ {
		rawSends += tp.hist[m]
	}
	ops.CodeSends = codeSends
	ops.RawSends = rawSends
	ops.PartialMatches = probes + rawSends*uint64(t.strides)
	return coded, ops, nil
}

// replaySampledFresh collects the sampled-verification value set —
// every every-th value past the head window plus the trace's last
// VerifyWindow values — and round-trips it through a fresh
// encoder/decoder pair, exactly as Evaluator.replaySample does.
func replaySampledFresh(t Transcoder, trace []uint64, verify VerifyPolicy) error {
	mask := uint64(bus.Mask(t.DataWidth()))
	n := len(trace)
	every := verify.every
	head := min(VerifyWindow, n)
	tail := max(n-VerifyWindow, head)
	var sample []uint64
	for i := (head + every - 1) / every * every; i < tail; i += every {
		sample = append(sample, trace[i]&mask)
	}
	for i := tail; i < n; i++ {
		sample = append(sample, trace[i]&mask)
	}
	if len(sample) == 0 {
		return nil
	}
	venc, vdec := t.NewEncoder(), t.NewDecoder()
	for j, v := range sample {
		w := venc.Encode(v)
		if got := vdec.Decode(w); got != v {
			return fmt.Errorf("coding: %s sampled-verification replay diverged at sample %d: sent %#x, decoded %#x", t.Name(), j, v, got)
		}
	}
	return nil
}
