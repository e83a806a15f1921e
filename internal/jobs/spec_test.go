package jobs

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"buspower/internal/experiments"
)

func TestParseSpecRequests(t *testing.T) {
	items, err := ParseSpec([]byte(`{"requests":[
		{"values":[1,2,3],"scheme":"raw"},
		{"values":[1,2,3],"scheme":"window:entries=8","lambda":2}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("%d items, want 2", len(items))
	}
	for i, it := range items {
		if it.Kind != "eval" || it.Eval == nil {
			t.Fatalf("item %d: %+v", i, it)
		}
	}
	// ParseEvalRequest canonicalizes the scheme spec, so equivalent
	// spellings content-address identically.
	if got := items[1].Eval.Scheme; got != "window:entries=8" {
		t.Errorf("canonical scheme = %q", got)
	}
	a, _ := ParseSpec([]byte(`{"requests":[{"values":[1,2,3],"scheme":"raw"}]}`))
	b, _ := ParseSpec([]byte(`{ "requests" : [ { "scheme" : "raw", "values" : [1, 2, 3] } ] }`))
	if JobID(a) != JobID(b) {
		t.Error("equivalent submissions got different job ids")
	}
}

func TestParseSpecSuite(t *testing.T) {
	items, err := ParseSpec([]byte(`{"suite":{"experiments":"table3,fig15","quick":true}}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 || items[0].Experiment != "table3" || items[1].Experiment != "fig15" {
		t.Fatalf("items: %+v", items)
	}
	for _, it := range items {
		if it.Kind != "experiment" || !it.Quick {
			t.Fatalf("item: %+v", it)
		}
	}
	all, err := ParseSpec([]byte(`{"suite":{"experiments":"all"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(experiments.IDs()) {
		t.Errorf("'all' expanded to %d items, want %d", len(all), len(experiments.IDs()))
	}
}

func TestParseSpecRejects(t *testing.T) {
	big := `{"requests":[` + strings.Repeat(`{"values":[1],"scheme":"raw"},`, MaxItems) + `{"values":[1],"scheme":"raw"}]}`
	cases := []struct {
		name, spec, wantIn string
	}{
		{"neither source", `{}`, "exactly one"},
		{"both sources", `{"requests":[{"values":[1],"scheme":"raw"}],"suite":{"experiments":"all"}}`, "exactly one"},
		{"unknown field", `{"turbo":1}`, "unknown field"},
		{"not json", `nope`, "bad job spec"},
		{"trailing data", `{"suite":{"experiments":"all"}}[]`, "trailing data"},
		{"trailing bracket", `{"suite":{"experiments":"all"}}]`, "trailing data"},
		{"trailing brace", `{"suite":{"experiments":"all"}} }`, "trailing data"},
		{"bad request", `{"requests":[{"values":[1],"scheme":"quantum"}]}`, "request 0"},
		{"unbuildable scheme", `{"requests":[{"values":[1],"scheme":"spatial"}]}`, "request 0"},
		{"bad suite id", `{"suite":{"experiments":"figXX"}}`, "unknown experiment"},
		{"too many items", big, fmt.Sprintf("cap %d", MaxItems)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.spec))
			if err == nil || !strings.Contains(err.Error(), tc.wantIn) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantIn)
			}
		})
	}
}

func TestDefaultRunExperiment(t *testing.T) {
	if _, err := defaultRunExperiment(context.Background(), Item{Kind: "experiment", Experiment: "figXX", Quick: true}, 1); err == nil {
		t.Fatal("unknown experiment id must error")
	}
	out, err := defaultRunExperiment(context.Background(), Item{Kind: "experiment", Experiment: "table3", Quick: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	tbl, ok := out.(*experiments.Table)
	if !ok || tbl.ID != "table3" || len(tbl.Rows) == 0 {
		t.Fatalf("unexpected result: %#v", out)
	}
}
