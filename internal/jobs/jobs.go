// Package jobs is the database-free async job engine behind the serving
// layer's /v1/jobs API: a submitted batch of evaluation requests (or a
// whole experiment suite) becomes a content-addressed Job whose items a
// dedicated worker pool drains through the experiments engine's memoized
// entry points. Jobs move pending → running → done/failed/cancelled with
// per-item progress, cooperative cancellation through context, and an
// append-only checksummed journal (plus atomic-rename snapshot
// compaction) so completed results survive restarts — a resubmission of
// an identical job is answered from the journal without re-evaluation,
// and a full-mode experiment suite that could never fit in one HTTP
// request window runs to completion behind a job id.
package jobs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"buspower/internal/coding"
	"buspower/internal/experiments"
)

// State is a job's position in its lifecycle.
type State string

const (
	// StatePending: accepted and journaled, no item has started.
	StatePending State = "pending"
	// StateRunning: at least one item has started.
	StateRunning State = "running"
	// StateDone: every item completed successfully.
	StateDone State = "done"
	// StateFailed: every item completed, at least one failed.
	StateFailed State = "failed"
	// StateCancelled: cancellation was requested before completion.
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// ItemStatus is one item's position in its lifecycle.
type ItemStatus string

const (
	ItemPending   ItemStatus = "pending"
	ItemRunning   ItemStatus = "running"
	ItemDone      ItemStatus = "done"
	ItemFailed    ItemStatus = "failed"
	ItemCancelled ItemStatus = "cancelled"
)

// Item is one unit of work inside a job: a single evaluation request or
// one registered experiment (a suite submission expands to one item per
// experiment id). Items are stored in canonical form — eval requests as
// ParseEvalRequest returns them — so the job id derived from them is
// stable across equivalent submissions.
type Item struct {
	// Kind is "eval" or "experiment".
	Kind string `json:"kind"`
	// Eval is the canonical evaluation request (kind "eval").
	Eval *experiments.EvalRequest `json:"eval,omitempty"`
	// Experiment is the registered experiment id (kind "experiment").
	Experiment string `json:"experiment,omitempty"`
	// Quick selects the reduced simulation bounds for experiment items;
	// false runs the paper's full-mode configuration.
	Quick bool `json:"quick,omitempty"`
}

// ItemResult is one item's outcome. Result holds the marshalled
// experiments.EvalResponse (eval items) or experiments.Table (experiment
// items) once the item is done.
type ItemResult struct {
	Status ItemStatus      `json:"status"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	// ElapsedMS is the item's wall time (completed items only).
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
}

// Progress summarizes a job's per-item completion counts.
type Progress struct {
	Total     int `json:"total"`
	Pending   int `json:"pending"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
}

// Job is one submitted batch with its full per-item state. Results is
// index-parallel to Items.
type Job struct {
	ID        string     `json:"id"`
	State     State      `json:"state"`
	CreatedAt time.Time  `json:"created_at"`
	StartedAt *time.Time `json:"started_at,omitempty"`
	// FinishedAt is set when the job reaches a terminal state.
	FinishedAt *time.Time   `json:"finished_at,omitempty"`
	Items      []Item       `json:"items"`
	Results    []ItemResult `json:"results"`
	Progress   Progress     `json:"progress"`
}

// recount rebuilds the Progress summary from the per-item statuses.
func (j *Job) recount() {
	p := Progress{Total: len(j.Results)}
	for i := range j.Results {
		switch j.Results[i].Status {
		case ItemRunning:
			p.Running++
		case ItemDone:
			p.Done++
		case ItemFailed:
			p.Failed++
		case ItemCancelled:
			p.Cancelled++
		default:
			p.Pending++
		}
	}
	j.Progress = p
}

// clone returns a deep copy safe to hand outside the store's lock.
func (j *Job) clone() *Job {
	c := *j
	if j.StartedAt != nil {
		t := *j.StartedAt
		c.StartedAt = &t
	}
	if j.FinishedAt != nil {
		t := *j.FinishedAt
		c.FinishedAt = &t
	}
	c.Items = append([]Item(nil), j.Items...)
	c.Results = make([]ItemResult, len(j.Results))
	for i, r := range j.Results {
		c.Results[i] = r
		c.Results[i].Result = append(json.RawMessage(nil), r.Result...)
	}
	return &c
}

// JobID content-addresses a canonical item list: the SHA-256 of the
// items' canonical JSON encoding, truncated to 128 bits. Two submissions
// describing the same work — however their JSON was originally spelled —
// collapse onto one job, so a million identical dashboard reloads cost
// one evaluation and one journal entry.
func JobID(items []Item) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, it := range items {
		// Encoding a struct with a fixed field order cannot fail.
		enc.Encode(it)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// MaxItems bounds one job's item count: big enough for any sweep the
// experiments define, small enough that a single submission cannot queue
// unbounded work.
const MaxItems = 1024

// Spec is the wire shape of a POST /v1/jobs submission. Exactly one of
// Requests or Suite must be set.
type Spec struct {
	// Requests is a batch of evaluation requests, each validated through
	// the same ParseEvalRequest path as POST /v1/eval.
	Requests []json.RawMessage `json:"requests,omitempty"`
	// Suite selects registered experiments by id.
	Suite *SuiteSpec `json:"suite,omitempty"`
}

// SuiteSpec names a set of registered experiments to run as one job.
type SuiteSpec struct {
	// Experiments is a comma-separated id list; "all" (alone or inside
	// the list) expands to every registered experiment.
	Experiments string `json:"experiments"`
	// Quick selects the reduced simulation bounds; false is full mode.
	Quick bool `json:"quick,omitempty"`
}

// ParseSpec decodes and validates a JSON submission into canonical
// items. Unknown fields and trailing data are rejected, every eval
// request goes through ParseEvalRequest (including the build-time scheme
// check), and suite ids are resolved against the experiment registry —
// a job can only be admitted whole.
func ParseSpec(data []byte) ([]Item, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec Spec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("jobs: bad job spec: %w", err)
	}
	// dec.More reports false on a closing ']' or '}', so look at the
	// bytes themselves.
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) != 0 {
		return nil, errors.New("jobs: bad job spec: trailing data after JSON object")
	}
	if (len(spec.Requests) == 0) == (spec.Suite == nil) {
		return nil, errors.New("jobs: job spec needs exactly one of requests or suite")
	}
	var items []Item
	if spec.Suite != nil {
		ids, err := experiments.ResolveIDs(spec.Suite.Experiments)
		if err != nil {
			return nil, err
		}
		for _, id := range ids {
			items = append(items, Item{Kind: "experiment", Experiment: id, Quick: spec.Suite.Quick})
		}
	} else {
		for i, raw := range spec.Requests {
			req, err := experiments.ParseEvalRequest(raw)
			if err != nil {
				return nil, fmt.Errorf("jobs: request %d: %w", i, err)
			}
			// Parameter combinations no constructor admits only surface at
			// build time; catch them at submission, not mid-job.
			if _, err := coding.BuildScheme(req.Scheme); err != nil {
				return nil, fmt.Errorf("jobs: request %d: %w", i, err)
			}
			r := req
			items = append(items, Item{Kind: "eval", Eval: &r})
		}
	}
	if len(items) > MaxItems {
		return nil, fmt.Errorf("jobs: %d items exceed the per-job cap %d", len(items), MaxItems)
	}
	return items, nil
}
