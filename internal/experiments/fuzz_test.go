package experiments

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// FuzzParseEvalRequest proves two properties of the request parser over
// arbitrary byte input: it never panics, and any input it accepts is
// canonical — encoding the parsed request and parsing it again yields
// the identical request (so memo keys derived from parsed requests are
// stable across clients that round-trip them).
func FuzzParseEvalRequest(f *testing.F) {
	seeds := []string{
		`{"values":[1,2,3],"scheme":"raw"}`,
		`{"values":[1,2,3,4],"scheme":"window:entries=8","lambda":2.5}`,
		`{"random":1000,"scheme":"context:table=16,sr=8"}`,
		`{"workload":"li","bus":"reg","quick":true,"scheme":"businvert"}`,
		`{"workload":"go","bus":"mem","scheme":"inversion:patterns=4","verify":"sampled:32"}`,
		`{"workload":"compress","bus":"addr","scheme":"stride:strides=4","max_instructions":50000,"max_bus_values":4000}`,
		`{"values":[18446744073709551615],"scheme":"gray","verify":"off"}`,
		`{"random":1,"scheme":"pbi:groups=4","lambda":0}`,
		`{"scheme":"raw"}`,
		`{"values":[],"scheme":"raw"}`,
		`{"values":[1],"scheme":"spatial:width=4"}`,
		`{"values":[1,2,3],"scheme":"optmem:extra=2"}`,
		`{"values":[5,6,7],"scheme":"vc:extra=3","lambda":1.5}`,
		`{"random":500,"scheme":"lowweight:groups=4,extra=1"}`,
		`{"workload":"li","bus":"reg","quick":true,"scheme":"dvs:extra=2,vdd=80"}`,
		`{"values":[1],"scheme":"dvs:vdd=49"}`,
		`not json at all`,
		`{"values":[1],"scheme":"raw","extra":true}`,
		`{"values":[1],"scheme":"raw"}{"values":[2],"scheme":"raw"}`,
		`{"values":[1],"scheme":"raw","lambda":1e309}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseEvalRequest(data)
		if err != nil {
			return // rejected input is fine; the property is about accepted input
		}
		encoded, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not re-encode: %v\ninput: %q", err, data)
		}
		again, err := ParseEvalRequest(encoded)
		if err != nil {
			t.Fatalf("canonical encoding rejected on reparse: %v\nencoded: %s\ninput: %q", err, encoded, data)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("round-trip unstable:\nfirst:  %+v\nsecond: %+v\nencoded: %s", req, again, encoded)
		}
	})
}

// FuzzParseEvalRequestFastPath is the differential check on the one-pass
// decoder: whenever decodeEvalFast handles an input, encoding/json must
// decode the identical request, and normalize must then give the same
// canonical request or the same error.
func FuzzParseEvalRequestFastPath(f *testing.F) {
	seeds := []string{
		string(inlineTestBody(1024, 1, "window:entries=8")),
		string(inlineTestBody(1024, 2, "context:table=64,sr=8")),
		`{"workload":"li","bus":"reg","scheme":"gray:lambda=1.0009765625","quick":true,"max_bus_values":2048}`,
		`{"Values":[1],"scheme":"raw"}`,
		`{"values":[1],"SCHEME":"raw"}`,
		`{"values":[1],"values":[2],"scheme":"raw"}`,
		`{"values":[1],"scheme":"r\u0061w"}`,
		`{"values":[1],"scheme":"raw\n"}`,
		`{"values":null,"random":5,"scheme":"raw"}`,
		`{"values":[1],"scheme":"raw","lambda":null}`,
		`{"values":[-0],"scheme":"raw"}`,
		`{"random":-0,"scheme":"raw"}`,
		`{"values":[1e3],"scheme":"raw"}`,
		`{"values":[1.0],"scheme":"raw"}`,
		`{"values":[01],"scheme":"raw"}`,
		`{"values":[18446744073709551615],"scheme":"raw"}`,
		`{"values":[18446744073709551616],"scheme":"raw"}`,
		`{"values":[99999999999999999999],"scheme":"raw"}`,
		`{"values":[],"random":3,"scheme":"raw"}`,
		`{"values":[1],"scheme":"raw","lambda":-0}`,
		`{"values":[1],"scheme":"raw","lambda":2.5e-1}`,
		`{"values":[1],"scheme":"raw","lambda":1e309}`,
		`{"workload":"li","bus":"reg","scheme":"raw","quick":false,"max_instructions":100}`,
		`{"workload":"li","bus":"reg","scheme":"raw","max_instructions":-1}`,
		`{"values":[1],"scheme":"raw"}]`,
		`{"values":[1],"scheme":"raw"}}`,
		`{"values":[1],"scheme":"raw"} x`,
		" \t\r\n{ \"values\" : [ 1 , 2 ] , \"scheme\" : \"raw\" } \n",
		`{"values":[1],"scheme":"raw",}`,
		`{}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fast, ok := decodeEvalFast(data)
		if !ok {
			return
		}
		ref, err := decodeEvalJSON(data)
		if err != nil {
			t.Fatalf("fast path accepted what encoding/json rejects (%v)\ninput: %q", err, data)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("decoders disagree:\nfast: %+v\njson: %+v\ninput: %q", fast, ref, data)
		}
		fastErr, refErr := fast.normalize(), ref.normalize()
		if fmt.Sprint(fastErr) != fmt.Sprint(refErr) || !reflect.DeepEqual(fast, ref) {
			t.Fatalf("normalize disagrees:\nfast: %+v (%v)\njson: %+v (%v)\ninput: %q", fast, fastErr, ref, refErr, data)
		}
	})
}
