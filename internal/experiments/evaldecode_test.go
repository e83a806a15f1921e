package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"runtime"
	"strconv"
	"testing"
)

// inlineTestBody builds a request body shaped like the served-miss
// benchmark's: n inline 32-bit values, mostly drawn from a small hot set.
func inlineTestBody(n int, seed uint64, scheme string) []byte {
	b := []byte(`{"values":[`)
	x := seed
	for i := range n {
		x = x*6364136223846793005 + 1442695040888963407
		if i > 0 {
			b = append(b, ',')
		}
		v := x >> 32
		if x%10 < 7 {
			v = v % 48 * 0x9e3779b9 & 0xffffffff
		}
		b = strconv.AppendUint(b, v, 10)
	}
	b = append(b, `],"scheme":`...)
	b = strconv.AppendQuote(b, scheme)
	return append(b, '}')
}

// TestDecodeEvalFastScope pins which bodies take the one-pass decoder;
// the rest must fall back to encoding/json. What each decoder returns is
// FuzzParseEvalRequestFastPath's job.
func TestDecodeEvalFastScope(t *testing.T) {
	cases := []struct {
		body string
		fast bool
	}{
		{string(inlineTestBody(1024, 1, "window:entries=8")), true},
		{`{"workload":"li","bus":"reg","scheme":"raw","quick":true,"max_bus_values":2048,"max_instructions":9,"lambda":1.5,"verify":"off"}`, true},
		{" {\n\"values\" : [ 0 , 18446744073709551615 ] ,\t\"scheme\":\"raw\" }\r\n", true},
		{`{"random":-0,"scheme":"raw"}`, true},
		{`{"values":[],"random":5,"scheme":"raw"}`, true},
		{`{}`, true},
		{`{"Values":[1],"scheme":"raw"}`, false},
		{`{"values":[1],"values":[1],"scheme":"raw"}`, false},
		{`{"values":[1],"scheme":"r\u0061w"}`, false},
		{`{"values":null,"random":5,"scheme":"raw"}`, false},
		{`{"values":[-0],"scheme":"raw"}`, false},
		{`{"values":[1e3],"scheme":"raw"}`, false},
		{`{"values":[01],"scheme":"raw"}`, false},
		{`{"values":[18446744073709551616],"scheme":"raw"}`, false},
		{`{"values":[1],"scheme":"raw","lambda":1e309}`, false},
		{`{"values":[1],"scheme":"raw","quick":1}`, false},
		{`{"random":1.0,"scheme":"raw"}`, false},
		{`{"values":[1],"scheme":"raw","extra":1}`, false},
		{`{"values":[1],"scheme":"raw"}]`, false},
		{`{"values":[1],"scheme":"raw"}}`, false},
		{`{"values":[1],"scheme":"raw",}`, false},
		{`{"values":[1,],"scheme":"raw"}`, false},
	}
	for _, c := range cases {
		if _, ok := decodeEvalFast([]byte(c.body)); ok != c.fast {
			t.Errorf("decodeEvalFast(%.80s) handled = %v, want %v", c.body, ok, c.fast)
		}
	}
}

// TestParseEvalRequestAllocs guards the served-miss parse cost: a
// 1024-value inline body parses in at most 6 allocations and 16 KiB
// (the values themselves are 8 KiB).
func TestParseEvalRequestAllocs(t *testing.T) {
	body := inlineTestBody(1024, 7, "window:entries=8")
	parse := func() {
		if _, err := ParseEvalRequest(body); err != nil {
			t.Fatal(err)
		}
	}
	parse()
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		parse()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if allocs > 6 || bytes > 16<<10 {
		t.Errorf("ParseEvalRequest of a 1024-value body: %.1f allocs, %.0f B per call; budget 6 allocs, %d B", allocs, bytes, 16<<10)
	}
}

// TestEvaluateRequestEnumAllocs bounds what one served cache miss on an
// optimal-codebook scheme allocates: a 1024-value inline optmem request,
// each with fresh values so the result and raw-meter memos miss as in
// serving. The budget sits 2 KiB above the bytes measured before the
// enumerative coders gained their per-encoder memo, so growing that memo
// (or any per-request scratch on this path) fails here.
func TestEvaluateRequestEnumAllocs(t *testing.T) {
	const runs = 40
	reqs := make([]EvalRequest, runs+1)
	for i := range reqs {
		req, err := ParseEvalRequest(inlineTestBody(1024, uint64(1000+i), "optmem:extra=2"))
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = req
	}
	eval := func(req EvalRequest) {
		if _, err := EvaluateRequest(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	eval(reqs[runs])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, req := range reqs[:runs] {
		eval(req)
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	const budget = enumEvalBytes + 2<<10
	if bytes > budget {
		t.Errorf("EvaluateRequest(optmem:extra=2, 1024 inline values): %.0f B per miss; budget %d B", bytes, budget)
	}
}

// enumEvalBytes is TestEvaluateRequestEnumAllocs's per-miss allocation
// measured before the per-encoder value memo (and before sampled
// verification presized its sample buffer).
const enumEvalBytes = 13086

// TestValuesDigest checks the chunked digest against hashing the whole
// little-endian encoding at once, across chunk boundaries.
func TestValuesDigest(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		vals := make([]uint64, n)
		var flat []byte
		for i := range vals {
			vals[i] = uint64(i) * 0x9e3779b97f4a7c15
			flat = binary.LittleEndian.AppendUint64(flat, vals[i])
		}
		if got, want := valuesDigest(vals), sha256.Sum256(flat); got != want {
			t.Errorf("n=%d: valuesDigest %x, want %x", n, got, want)
		}
	}
}

// TestRequestKey: the key is the same for every spelling of one
// evaluation and changes with anything that changes the evaluation.
func TestRequestKey(t *testing.T) {
	key := func(body string) string {
		t.Helper()
		req, err := ParseEvalRequest([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		k, err := RequestKey(req)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		return k
	}
	base := key(`{"values":[1,2,3],"scheme":"window:entries=8"}`)
	same := []string{
		" {\n\t\"values\": [1, 2, 3],\r\n \"scheme\": \"window:entries=8\" } ",
		`{"scheme":"window:entries=8","values":[1,2,3]}`,
		`{"Values":[1,2,3],"SCHEME":"window:entries=8"}`,
		`{"values":[1,2,3],"scheme":" window : entries=8 "}`,
		`{"values":[1,2,3],"scheme":"window:entries=8","verify":"sampled"}`,
		`{"values":[1,2,3],"scheme":"window:entries=8","verify":"sampled:64"}`,
		`{"values":[1,2,3],"scheme":"window:entries=8","lambda":1}`,
	}
	for _, body := range same {
		if k := key(body); k != base {
			t.Errorf("%s: key %s, want %s", body, k, base)
		}
	}
	differ := []string{
		`{"values":[1,2,4],"scheme":"window:entries=8"}`,
		`{"values":[1,2],"scheme":"window:entries=8"}`,
		`{"values":[1,2,3,0],"scheme":"window:entries=8"}`,
		`{"values":[1,2,3],"scheme":"window:entries=8","lambda":2}`,
		`{"values":[1,2,3],"scheme":"window:entries=8","verify":"full"}`,
		`{"values":[1,2,3],"scheme":"window:entries=16"}`,
		`{"random":3,"scheme":"window:entries=8"}`,
	}
	seen := map[string]string{base: "base"}
	for _, body := range differ {
		k := key(body)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s: key %s collides with %s", body, k, prev)
		}
		seen[k] = body
	}
}
