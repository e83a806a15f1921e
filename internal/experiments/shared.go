package experiments

import (
	"context"

	"buspower/internal/bus"
	"buspower/internal/coding"
	"buspower/internal/memo"
	"buspower/internal/workload"
)

// traceID names one evaluation input stream: a workload bus trace
// (source + bus + run bounds) or the synthetic random comparison trace
// (source "random" + length; randomSeed is fixed, so n fully identifies
// it). It is the trace component of every memo key below.
type traceID struct {
	source string
	bus    string
	n      int // random-trace length; 0 for workload buses
	run    workload.RunConfig
}

func workloadTraceID(name, busName string, cfg Config) traceID {
	return traceID{source: name, bus: busName, run: cfg.Run}
}

func randomTraceID(n int) traceID {
	return traceID{source: "random", n: n}
}

// The raw-bus measurement of a trace is identical for every scheme and Λ
// a sweep evaluates on it (Λ enters only when the meter is read), so the
// runners share one Σ-only meter per trace through this single-flight
// memo instead of re-metering the trace once per scheme.
var rawMeterMemo = memo.New[traceID, *bus.Meter](128)

// rawMeterFor returns the shared raw-bus meter of one workload bus at the
// experiments' data width.
func rawMeterFor(name, busName string, cfg Config) (*bus.Meter, error) {
	return rawMeterMemo.Do(workloadTraceID(name, busName, cfg), func() (*bus.Meter, error) {
		tr, err := busTrace(name, busName, cfg)
		if err != nil {
			return nil, err
		}
		return coding.MeasureRawValues(busWidth, tr), nil
	})
}

// randomBundle pairs the n-value random comparison trace with its raw-bus
// meter, so the runners neither regenerate the values nor re-meter them.
type randomBundle struct {
	trace []uint64
	meter *bus.Meter
}

var randomMemo = memo.New[int, randomBundle](8)

func randomBundleFor(n int) randomBundle {
	b, _ := randomMemo.Do(n, func() (randomBundle, error) {
		tr := workload.RandomTrace(n, randomSeed)
		return randomBundle{trace: tr, meter: coding.MeasureRawValues(busWidth, tr)}, nil
	})
	return b
}

// resultKey identifies one transcoder evaluation: what was encoded
// (trace), with which exact codec configuration (the canonical
// coding.ConfigKey string — names alone under-specify, e.g. the context
// coder's divide period), under which verification policy. Every policy
// yields bit-identical Results, but keeping the policy in the key means
// a -verify=full run re-proves every evaluation instead of inheriting
// sampled-run entries.
//
// The metered Λ is deliberately NOT part of the key: an encoder's output
// stream depends only on its own configuration (including its assumed Λ,
// which ConfigKey captures), never on the Λ the meters are read at — the
// same invariant the grid engine already exploits when it fans
// equal-config cells of a Λ sweep out from one encode. The memoized
// Result therefore carries λ-independent meters and counts, and each
// retrieval stamps its own Lambda before use, so one encode serves every
// Λ any experiment asks for.
type resultKey struct {
	config string
	trace  traceID
	verify string
}

// resultMemo shares whole evaluation Results across experiments: the
// figure-24/25 context sweeps, the energy figures and the extension
// tables all re-evaluate overlapping (transcoder, trace, Λ) points, and
// within one invocation each point is computed once. It subsumes the
// window-result memo the energy experiments previously kept for
// themselves. The full -exp all sweep computes ~1.6k distinct entries;
// 2048 holds them all without mid-run eviction (a Result is one cloned
// meter plus counters, well under 1 KiB).
var resultMemo = memo.New[resultKey, coding.Result](2048)

// vlcMemo is the variable-length-coding counterpart: VLC evaluations
// return their own result type (beat-accurate), so they get a small memo
// of their own on the same machinery.
var vlcMemo = memo.New[resultKey, coding.VLCResult](64)

// MemoStats is a point-in-time snapshot of one memo's counters.
type MemoStats = memo.Stats

// EvalMemoStats reports the evaluation-result memo's counters.
func EvalMemoStats() MemoStats { return resultMemo.Stats() }

// RawMeterMemoStats reports the shared raw-bus meter memo's counters.
func RawMeterMemoStats() MemoStats { return rawMeterMemo.Stats() }

// SlicedCacheStats reports the counters of a cache of bit-sliced trace
// transpositions. The engine no longer keeps one (transposing a trace
// for a single raw or Gray evaluation costs more than the scalar path,
// and a memoized Result leaves nothing to reuse it for), so it always
// reports zeros; it stays for the benchmark program, which reads it.
func SlicedCacheStats() MemoStats { return MemoStats{} }

// ClearEvalMemo returns the evaluation-result memos (fixed-length and
// VLC) and the engine's stride-tape cache to their cold state (the
// bench harness's memo-cold phase; raw-meter and trace caches are
// governed separately).
func ClearEvalMemo() {
	resultMemo.Reset()
	vlcMemo.Reset()
	coding.ClearStrideTapeCache()
}

// evalTrace is one input trace of an evaluation plan: its identity and,
// for an inline trace, its values. Workload and random traces are
// resolved from their identity, and only when one of their keys misses.
type evalTrace struct {
	id     traceID
	values []uint64
}

func workloadTrace(name, busName string, cfg Config) evalTrace {
	return evalTrace{id: workloadTraceID(name, busName, cfg)}
}

func randomTrace(n int) evalTrace { return evalTrace{id: randomTraceID(n)} }

// suiteTraces names one bus of every listed workload.
func suiteTraces(names []string, busName string, cfg Config) []evalTrace {
	out := make([]evalTrace, len(names))
	for i, name := range names {
		out[i] = workloadTrace(name, busName, cfg)
	}
	return out
}

// resolve returns the trace's values, its shared raw-bus meter at the
// experiments' data width (the engine measures any other width itself),
// and the identity the engine caches stride tapes under. Inline traces
// carry neither a shared meter nor an engine identity: they are rarely
// evaluated twice, and caching them would only evict the named traces'
// entries.
func (t evalTrace) resolve() (coding.BatchTrace, error) {
	switch {
	case t.values != nil:
		return coding.BatchTrace{Values: t.values}, nil
	case t.id.n > 0: // only random traces have a length in their identity
		b := randomBundleFor(t.id.n)
		return coding.BatchTrace{Values: b.trace, Raw: b.meter, ID: t.id}, nil
	default:
		cfg := Config{Run: t.id.run}
		tr, err := busTrace(t.id.source, t.id.bus, cfg)
		if err != nil {
			return coding.BatchTrace{}, err
		}
		raw, err := rawMeterFor(t.id.source, t.id.bus, cfg)
		if err != nil {
			return coding.BatchTrace{}, err
		}
		return coding.BatchTrace{Values: tr, Raw: raw, ID: t.id}, nil
	}
}

// gridPoint is one (transcoder, Λ) cell of an evaluation plan.
type gridPoint struct {
	tc     coding.Transcoder
	lambda float64
}

// evaluate is the package's one transcoder-evaluation entry point: every
// runner and EvaluateRequest hand it a plan of points × traces, and it
// returns the results trace-major (out[t][p]). Each (point, trace) pair
// is one resultKey; the plan runs in five steps:
//
//  1. Claim: every key goes to the result memo in one batch claim, which
//     drops duplicate keys and claims, single-flight, every key no other
//     caller holds. Hits skip everything below, even the trace lookup.
//  2. Resolve: only the traces with a claimed key are fetched (ctx is
//     checked first, so a cancelled request stops here).
//  3. Evaluate: all claimed cells — every point of a claimed key, so a
//     config read at several Λ still fans out from one encode — run in
//     one coding.EvaluateBatch pass.
//  4. Publish: each key's Result, its coded meter detached, is stored
//     under its own key. Only then does the call wait on the keys other
//     callers are computing, so it never waits on its own claims.
//  5. Retry: a failure that does not belong to one key (a cancelled
//     leader, or any error of a multi-key claim) un-caches every key the
//     leader claimed, and its waiters claim them again under their own
//     contexts.
//
// The metered Λ is stamped on each retrieved Result (see resultKey).
func evaluate(ctx context.Context, points []gridPoint, traces []evalTrace, cfg Config) ([][]coding.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	np := len(points)
	verify := cfg.Verify.String()
	cells := make([]coding.GridCell, np)
	configs := make([]string, np)
	for i, p := range points {
		cells[i] = coding.GridCell{T: p.tc, Lambda: p.lambda}
		configs[i] = coding.ConfigKey(p.tc)
	}
	// keys is the plan flattened trace-major; first maps each position to
	// the first position with the same key, the one a claim names.
	keys := make([]resultKey, 0, np*len(traces))
	for _, t := range traces {
		for _, config := range configs {
			keys = append(keys, resultKey{config: config, trace: t.id, verify: verify})
		}
	}
	first := make([]int, len(keys))
	seen := make(map[resultKey]int, len(keys))
	for f, k := range keys {
		if j, ok := seen[k]; ok {
			first[f] = j
		} else {
			seen[k], first[f] = f, f
		}
	}
	vals, err := resultMemo.DoAll(keys, func(claimed []int) ([]coding.Result, error) {
		mine := make([]bool, len(keys))
		for _, f := range claimed {
			mine[f] = true
		}
		var batch []coding.BatchTrace
		at := make([]int, len(traces)) // trace → its index in batch
		for ti, t := range traces {
			var sel []int
			for pi := 0; pi < np; pi++ {
				if mine[first[ti*np+pi]] {
					sel = append(sel, pi)
				}
			}
			if sel == nil {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			bt, err := t.resolve()
			if err != nil {
				return nil, err
			}
			bt.Cells = sel
			at[ti] = len(batch)
			batch = append(batch, bt)
		}
		results, err := coding.EvaluateBatch(cells, batch, cfg.Verify)
		if err != nil {
			return nil, err
		}
		out := make([]coding.Result, len(claimed))
		for j, f := range claimed {
			res := results[at[f/np]][f%np]
			// Cells of one config group share a coded meter; detach the
			// retained copy.
			res.Coded = res.Coded.Clone()
			out[j] = res
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]coding.Result, len(traces))
	for ti := range out {
		out[ti] = vals[ti*np : (ti+1)*np : (ti+1)*np]
		for pi := range out[ti] {
			out[ti][pi].Lambda = points[pi].lambda
		}
	}
	return out, nil
}
