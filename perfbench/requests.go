package main

import (
	"math/rand/v2"
	"strconv"
	"strings"
)

// Request sequences for the serve workloads. Both are pure functions of
// the seed and the request index, so the external load generator and the
// in-process traced replay send byte-identical bodies, and the server
// receives nothing but these bodies.

const (
	inlineValues    = 1024 // values per serve-miss inline trace
	hotValues       = 48   // size of the serve-miss hot value set
	hotPermille     = 700  // share of inline values drawn from the hot set
	namedEvery      = 8    // 1 in namedEvery serve-miss requests names a workload
	namedMaxValues  = 2048 // fixed max_bus_values of the named requests
	hitBodies       = 128  // distinct bodies replayed by serve-hit
	hitValues       = 32   // values per serve-hit inline trace
	warmNamedScheme = "gray"
)

// namedSource is one (workload, bus) stream a named request can select.
type namedSource struct{ workload, bus string }

// namedSources lists every (workload, bus) pair in a fixed order.
func namedSources(workloads []string) []namedSource {
	var out []namedSource
	for _, w := range workloads {
		for _, b := range []string{"reg", "mem", "addr"} {
			out = append(out, namedSource{w, b})
		}
	}
	return out
}

// seqGen derives request bodies from a seed.
type seqGen struct {
	seed    uint64
	schemes []string // /v1/schemes examples, in kind order
	sources []namedSource
	hot     []uint64
	kindOff int // seeded rotation offset over schemes
	srcPerm []int
}

func newSeqGen(seed uint64, schemes []string, sources []namedSource) *seqGen {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	g := &seqGen{seed: seed, schemes: schemes, sources: sources}
	g.hot = make([]uint64, hotValues)
	for i := range g.hot {
		g.hot[i] = uint64(r.Uint32())
	}
	g.kindOff = r.IntN(len(schemes))
	g.srcPerm = r.Perm(len(sources))
	return g
}

// rng returns the generator for one request of one stream.
func (g *seqGen) rng(stream, i uint64) *rand.Rand {
	return rand.New(rand.NewPCG(g.seed^stream, i))
}

// missBody returns serve-miss request i. Seven in eight carry a distinct
// inline trace whose scheme rotates over the scheme kinds; the eighth
// names a workload stream, and its scheme carries a λ no other request
// uses, so no (source, scheme) pair ever repeats and every cache misses.
func (g *seqGen) missBody(i int) []byte {
	if isNamed(i) {
		j := i / namedEvery
		src := g.sources[g.srcPerm[j%len(g.sources)]]
		scheme := g.schemes[(j+g.kindOff)%len(g.schemes)]
		// λ = 1 + (j+1)/1024 is exact in binary, unique per request and
		// never the warm-up's default λ = 1.
		scheme = withParam(scheme, "lambda="+strconv.FormatFloat(1+float64(j+1)/1024, 'g', -1, 64))
		return namedBody(src, scheme)
	}
	r := g.rng(1, uint64(i))
	vals := make([]uint64, inlineValues)
	for k := range vals {
		if r.IntN(1000) < hotPermille {
			vals[k] = g.hot[r.IntN(len(g.hot))]
		} else {
			vals[k] = uint64(r.Uint32())
		}
	}
	return inlineBody(vals, g.schemes[(i+g.kindOff)%len(g.schemes)])
}

// isNamed reports whether serve-miss request i names a workload.
func isNamed(i int) bool { return i%namedEvery == namedEvery-1 }

// warmNamedBodies returns one request per named source with a scheme the
// timed sequence never sends for a named source (λ = 1), so warm-up
// fills the trace caches but leaves every timed evaluation a miss.
func (g *seqGen) warmNamedBodies() [][]byte {
	out := make([][]byte, len(g.sources))
	for k, src := range g.sources {
		out[k] = namedBody(src, warmNamedScheme)
	}
	return out
}

// hitSet returns the fixed serve-hit bodies.
func (g *seqGen) hitSet() [][]byte {
	out := make([][]byte, hitBodies)
	for k := range out {
		r := g.rng(2, uint64(k))
		vals := make([]uint64, hitValues)
		for v := range vals {
			vals[v] = uint64(r.Uint32())
		}
		out[k] = inlineBody(vals, g.schemes[(k+g.kindOff)%len(g.schemes)])
	}
	return out
}

// hitIndex picks which hit-set body request i replays.
func (g *seqGen) hitIndex(i int) int { return g.rng(3, uint64(i)).IntN(hitBodies) }

func withParam(scheme, kv string) string {
	if strings.Contains(scheme, ":") {
		return scheme + "," + kv
	}
	return scheme + ":" + kv
}

func inlineBody(vals []uint64, scheme string) []byte {
	b := make([]byte, 0, 16+11*len(vals)+len(scheme))
	b = append(b, `{"values":[`...)
	for k, v := range vals {
		if k > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, v, 10)
	}
	b = append(b, `],"scheme":`...)
	b = strconv.AppendQuote(b, scheme)
	return append(b, '}')
}

func namedBody(src namedSource, scheme string) []byte {
	b := []byte(`{"workload":`)
	b = strconv.AppendQuote(b, src.workload)
	b = append(b, `,"bus":`...)
	b = strconv.AppendQuote(b, src.bus)
	b = append(b, `,"scheme":`...)
	b = strconv.AppendQuote(b, scheme)
	b = append(b, `,"quick":true,"max_bus_values":`...)
	b = strconv.AppendInt(b, namedMaxValues, 10)
	return append(b, '}')
}
