package coding

import (
	"fmt"
	"sort"

	"buspower/internal/bus"
)

// Batch evaluation: families of Window transcoders that differ only in
// register size are encoded in ONE pass over the trace, and whole
// workload suites stream through a shared scratch via EvaluateBatch.
//
// The naive "probe the largest dictionary once and read every smaller
// size's answer off the hit depth" — the stride-tape trick — is UNSOUND
// for insert-on-miss FIFO dictionaries: they lack the inclusion
// property. Counterexample (any width): feed a b c d a b e a b c d e to
// 3- and 4-entry registers; by the final e the 3-entry ring holds
// {c d e}… and has evicted and re-admitted values the 4-entry ring
// still holds, so a value can hit the SMALLER register while missing
// the larger one. No per-cycle record of the big register's state can
// reconstruct the small register's contents.
//
// Instead the family pass is exact by construction: every size keeps
// its own ring (precisely the windowState semantics), and only the
// genuinely size-independent work is shared — the per-cycle hash probe
// (one lookup against a merged value→slots index instead of one per
// size), the LAST-value test, the masked input stream, and the
// selective-precharge accounting, which drops from a per-size byte
// histogram read per cycle to an O(1)-per-insert residency credit (see
// cum / births below). Outputs, meters and OpStats are bit-identical to
// the scalar path (batch_test.go differentials + fuzz).
//
// Context families are NOT batched: the sorted frequency table and SR
// front-end evolve differently at every table size from the first
// divergence on, and unlike the window ring there is no shared probe to
// hoist (the table order itself is the state). Those cells take the
// scalar path, as does everything under VerifyFull (a live decoder must
// see every coded word, which is exactly one full scalar run per cell).

// famResult is one family member's share of a batch pass.
type famResult struct {
	coded *bus.Meter
	ops   OpStats
}

// windowFamily is the reusable scratch for one (width, lambda) family
// of Window transcoders, sorted ascending by register size.
//
// FullMatches accounting: the scalar encoder adds byteCount[b(v)] every
// cycle — the number of resident entries sharing the probe byte. Summed
// over the run, each residency interval (t_ins, t_evict] of an entry u
// contributes the number of cycles in that interval whose input shares
// u's byte. With cum[x] = cycles seen so far with low byte x
// (incremented at the top of each cycle), that is
// cum@evict[b(u)] − cum@insert[b(u)]: record births[slot] = cum[b(u)]
// at insert, credit the difference at evict, and flush still-resident
// entries (including the initial zero fill, whose births are 0) against
// the final cum. This removes all per-cycle per-size histogram reads.
type windowFamily struct {
	width  int
	lambda float64
	ts     []*WindowTranscoder
	m      int

	codes [][]bus.Word // per member: codebook codes, index 1+slot

	// Per-size rings, exact replicas of windowState. rowAt shadows each
	// ring with the arena row of the resident value, so evictions release
	// their row without re-probing the shared index.
	rings  [][]uint64
	births [][]uint64
	rowAt  [][]int32
	heads  []int
	fresh  []int

	// Shared probe index: resident value → row in the slot arena.
	// slots[row*m+k] is the value's physical slot in ring k, −1 absent.
	// Live rows never exceed Σ sizes + 1 (one transient row for the
	// incoming value before evictions release theirs).
	idx      *ctxIndex
	slots    []int16
	rowCount []int16
	freeRows []int32
	rowCap   int

	cum [256]uint64

	chs       []channel
	streams   []bus.MeterStream
	outs      []bus.Word
	fm        []uint64
	codeSends []uint64
	rawSends  []uint64
}

// famSizes returns the ascending distinct register sizes of ts, or nil
// if ts has duplicate sizes (cannot happen for ConfigKey-deduped grid
// groups, but the constructor refuses rather than assumes).
func famSizes(ts []*WindowTranscoder) []int {
	sizes := make([]int, len(ts))
	for i, t := range ts {
		sizes[i] = t.entries
	}
	sort.Ints(sizes)
	for i := 1; i < len(sizes); i++ {
		if sizes[i] == sizes[i-1] {
			return nil
		}
	}
	return sizes
}

func newWindowFamily(ts []*WindowTranscoder) *windowFamily {
	sorted := make([]*WindowTranscoder, len(ts))
	copy(sorted, ts)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].entries < sorted[j].entries })
	m := len(sorted)
	f := &windowFamily{
		width:     sorted[0].width,
		lambda:    sorted[0].lambda,
		ts:        sorted,
		m:         m,
		codes:     make([][]bus.Word, m),
		rings:     make([][]uint64, m),
		births:    make([][]uint64, m),
		rowAt:     make([][]int32, m),
		heads:     make([]int, m),
		fresh:     make([]int, m),
		chs:       make([]channel, m),
		streams:   make([]bus.MeterStream, m),
		outs:      make([]bus.Word, m),
		fm:        make([]uint64, m),
		codeSends: make([]uint64, m),
		rawSends:  make([]uint64, m),
	}
	total := 0
	for k, t := range sorted {
		n := t.entries
		total += n
		f.rings[k] = make([]uint64, n)
		f.births[k] = make([]uint64, n)
		f.rowAt[k] = make([]int32, n)
		f.chs[k] = newChannel(t.width, t.lambda)
		codes := make([]bus.Word, 1+n)
		for i := range codes {
			codes[i] = t.cb.Code(i)
		}
		f.codes[k] = codes
	}
	rows := total + m
	f.idx = newCtxIndex(rows)
	f.slots = make([]int16, rows*m)
	f.rowCount = make([]int16, rows)
	f.reset()
	return f
}

func (f *windowFamily) reset() {
	for k := range f.rings {
		ring := f.rings[k]
		for s := range ring {
			ring[s] = 0
			f.births[k][s] = 0
		}
		f.heads[k] = 0
		f.fresh[k] = len(ring)
		f.chs[k].reset()
		f.fm[k] = 0
		f.codeSends[k] = 0
		f.rawSends[k] = 0
	}
	f.cum = [256]uint64{}
	f.idx.clear()
	for i := range f.slots {
		f.slots[i] = -1
	}
	for i := range f.rowCount {
		f.rowCount[i] = 0
	}
	f.freeRows = f.freeRows[:0]
	f.rowCap = 0
}

func (f *windowFamily) addRow(v uint64) int {
	var row int32
	if ln := len(f.freeRows); ln > 0 {
		row = f.freeRows[ln-1]
		f.freeRows = f.freeRows[:ln-1]
	} else {
		row = int32(f.rowCap)
		f.rowCap++
	}
	f.idx.put(ctxKey{cur: v}, int(row))
	return int(row)
}

// removeResident clears v's slot in ring k; the row (and its index key)
// is released once no ring holds v. The caller reads row from the rowAt
// arena, where every non-fresh ring entry recorded it at insert.
func (f *windowFamily) removeResident(v uint64, row int32, k int) {
	f.slots[int(row)*f.m+k] = -1
	if f.rowCount[row]--; f.rowCount[row] == 0 {
		f.idx.del(ctxKey{cur: v})
		f.freeRows = append(f.freeRows, row)
	}
}

// run streams one trace through every family member at once. Results
// are aligned with f.ts (ascending register size). verify must not be
// VerifyFull (the grid router never sends it here).
func (f *windowFamily) run(trace []uint64, verify VerifyPolicy) ([]famResult, error) {
	f.reset()
	m := f.m
	res := make([]famResult, m)
	for k := 0; k < m; k++ {
		res[k].coded = bus.NewMeterLite(f.width + 2)
		res[k].coded.StreamInto(&f.streams[k])
		f.streams[k].Record(0)
	}
	mask := uint64(bus.Mask(f.width))
	n := len(trace)
	head := 0
	var decs []Decoder
	if verify.mode == verifySampled {
		head = min(VerifyWindow, n)
		decs = make([]Decoder, m)
		for k := range decs {
			decs[k] = f.ts[k].NewDecoder()
		}
	}
	var last uint64
	var lastHits uint64
	for i, v := range trace {
		v &= mask
		f.cum[v&0xFF]++
		if v == last {
			lastHits++
			// sendCode(0) for every member: no state change, no activity.
			if i < head {
				for k := 0; k < m; k++ {
					f.outs[k] = f.chs[k].state
				}
			}
		} else {
			row := f.idx.get(ctxKey{cur: v})
			for k := 0; k < m; k++ {
				slot := -1
				if v == 0 && f.fresh[k] > 0 {
					slot = f.heads[k]
				} else if row >= 0 {
					slot = int(f.slots[row*m+k])
				}
				var out bus.Word
				if slot >= 0 {
					f.codeSends[k]++
					out = f.chs[k].sendCode(f.codes[k][1+slot])
				} else {
					f.rawSends[k]++
					h := f.heads[k]
					ring := f.rings[k]
					evicted := ring[h]
					f.fm[k] += f.cum[evicted&0xFF] - f.births[k][h]
					if f.fresh[k] > 0 {
						f.fresh[k]--
					} else {
						f.removeResident(evicted, f.rowAt[k][h], k)
					}
					ring[h] = v
					f.births[k][h] = f.cum[v&0xFF]
					if row < 0 {
						row = f.addRow(v)
					}
					f.slots[row*m+k] = int16(h)
					f.rowAt[k][h] = int32(row)
					f.rowCount[row]++
					if h++; h == len(ring) {
						h = 0
					}
					f.heads[k] = h
					out, _ = f.chs[k].sendRaw(v)
				}
				if i < head {
					f.outs[k] = out
				}
			}
		}
		if i < head {
			for k := 0; k < m; k++ {
				if got := decs[k].Decode(f.outs[k]); got != v {
					return nil, fmt.Errorf("coding: %s decoder diverged at cycle %d: sent %#x, decoded %#x", f.ts[k].Name(), i, v, got)
				}
			}
		}
		last = v
	}
	un := uint64(n)
	for k := 0; k < m; k++ {
		ch := &f.chs[k]
		f.streams[k].AddBlock(un, ch.accT, ch.accC, ch.state)
		f.streams[k].Flush()
	}
	if verify.mode == verifySampled {
		for k := 0; k < m; k++ {
			if err := replaySampledFresh(f.ts[k], trace, verify); err != nil {
				return nil, err
			}
		}
	}
	for k := 0; k < m; k++ {
		full := f.fm[k]
		for s, u := range f.rings[k] {
			full += f.cum[u&0xFF] - f.births[k][s]
		}
		res[k].ops = OpStats{
			Cycles:         un,
			LastHits:       lastHits,
			CodeSends:      f.codeSends[k],
			RawSends:       f.rawSends[k],
			Shifts:         f.rawSends[k],
			PartialMatches: un * uint64(len(f.rings[k])),
			FullMatches:    full,
		}
	}
	return res, nil
}

// gridScratch carries the state EvaluateBatch pins across traces: the
// scalar Evaluator's encoder scratch and the window-family arenas,
// keyed by family signature so repeated grids rebuild nothing.
type gridScratch struct {
	ev   Evaluator
	fams map[string]*windowFamily
}

// family returns scratch for the given members, reusing a previous
// trace's arenas when the signature matches. Transcoders with equal
// configurations are interchangeable (codebooks are deterministic), so
// only the current call's ts are retained for naming and verification.
func (sc *gridScratch) family(sig string, ts []*WindowTranscoder) *windowFamily {
	if f := sc.fams[sig]; f != nil {
		sorted := make([]*WindowTranscoder, len(ts))
		copy(sorted, ts)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].entries < sorted[j].entries })
		f.ts = sorted
		return f
	}
	f := newWindowFamily(ts)
	if sc.fams == nil {
		sc.fams = make(map[string]*windowFamily, 2)
	}
	sc.fams[sig] = f
	return f
}

// BatchTrace is one trace of an EvaluateBatch suite.
type BatchTrace struct {
	Values []uint64
	// Raw is an optional pre-measured raw-bus meter (as from
	// MeasureRawValues) for the cells whose data width matches; other
	// widths are measured once each per trace.
	Raw *bus.Meter
	// ID, when non-nil, is the caller's identity for Values: a comparable
	// value that names the trace's content, so equal IDs promise equal
	// values. Traces with an ID share stride tapes across calls through
	// the engine's cache; a trace without one caches nothing.
	ID any
	// Cells, when non-nil, selects the cells (indices into the batch's
	// cells) evaluated on this trace; the other results stay zero.
	Cells []int
}

// EvaluateBatch evaluates the cell grid against every trace. It is the
// evaluation engine: it pins one set of transcoder scratch state —
// encoder dictionaries, family arenas, meter streams — and streams all
// traces through it, so per-trace setup is amortized across the suite,
// and picks the fast path of each cell internally (see the package's
// grid notes). Each call is one worker's unit: callers that shard (the
// experiment runner's parFor, the serve pool) put disjoint suites on
// different workers; sharing a batch between goroutines is not
// supported.
//
// verify applies to every cell exactly as in Evaluator.Evaluate; under
// VerifyFull the fast paths (which cannot run a live decoder over the
// whole stream) step aside and every unique configuration runs the
// scalar full-verify path, still deduplicated.
//
// Results are trace-major: out[i][j] is cell j evaluated on traces[i],
// bit-identical to evaluating that cell alone. Cells of one trace that
// share a configuration share Raw and Coded meter instances; callers
// that mutate or Reset a meter must Clone it first.
func EvaluateBatch(cells []GridCell, traces []BatchTrace, verify VerifyPolicy) ([][]Result, error) {
	var sc gridScratch
	out := make([][]Result, len(traces))
	for i := range traces {
		res, err := sc.evaluate(cells, &traces[i], verify)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}
