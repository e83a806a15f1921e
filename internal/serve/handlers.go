package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"buspower/internal/coding"
	"buspower/internal/experiments"
	"buspower/internal/workload"
)

// handleEval answers POST /v1/eval: one experiments.EvalRequest in, one
// experiments.EvalResponse out. The full pipeline is: body size limit →
// strict parse/validate (400) → ring routing (non-owned keys go to the
// response cache or the owner replica, with local fallback) → pool
// admission (429 when saturated) → per-request timeout → memoized
// evaluation.
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := readBody(w, r, s.opts.MaxBodyBytes)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	// Raw-body fast path: a repeated byte-identical request skips
	// parsing, validation and canonicalization entirely. Only successful
	// responses are ever stored under a body alias, so the shortcut can
	// never change an answer — at worst it misses and the full pipeline
	// runs.
	bodyKey := bodyRingKey(body)
	if data, ok := s.respCache.get(bodyKey); ok {
		writeJSONBytes(w, http.StatusOK, data)
		return
	}
	req, err := experiments.ParseEvalRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Scheme parameter *combinations* no constructor admits (e.g. spatial
	// at width 32) only surface at build time; classify them as client
	// errors here rather than letting the evaluation path 500 on them.
	if _, err := coding.BuildScheme(req.Scheme); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key, err := experiments.RequestKey(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ringKey := evalRingKey(key)
	if s.serveFromCluster(w, r, req, ringKey, bodyKey) {
		return
	}
	data, herr := s.evalResponseBytes(r, req, ringKey)
	if herr != nil {
		herr.write(w)
		return
	}
	s.respCache.put(bodyKey, data)
	writeJSONBytes(w, http.StatusOK, data)
}

// httpError carries an error-response decision out of evalResponseBytes
// so /v1/eval and /v1/peer/eval render identical failures.
type httpError struct {
	code       int
	retryAfter int // seconds; emitted as Retry-After when > 0
	msg        string
}

func (e *httpError) write(w http.ResponseWriter) {
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfter))
	}
	writeError(w, e.code, "%s", e.msg)
}

// evalResponseBytes produces the exact marshalled 200 payload for a
// parsed request: the response byte cache first, then the bounded pool
// and the memoized engine on a miss. Only successful payloads are
// cached — an error here describes this request's admission or
// deadline, not the key's value.
func (s *Server) evalResponseBytes(r *http.Request, req experiments.EvalRequest, ringKey string) ([]byte, *httpError) {
	if data, ok := s.respCache.get(ringKey); ok {
		return data, nil
	}
	release, err := s.pool.acquire(r.Context())
	if err != nil {
		switch {
		case errors.Is(err, errSaturated):
			return nil, &httpError{
				code:       http.StatusTooManyRequests,
				retryAfter: s.evalRetryAfterSeconds(),
				msg:        fmt.Sprintf("server saturated: %d evaluations running, %d queued", s.opts.Workers, s.opts.QueueDepth),
			}
		case errors.Is(err, context.DeadlineExceeded):
			return nil, &httpError{code: http.StatusGatewayTimeout, msg: "request deadline expired while queued"}
		default: // client went away while queued
			return nil, &httpError{code: http.StatusServiceUnavailable, msg: "request cancelled while queued"}
		}
	}
	defer release()

	ctx := r.Context()
	if s.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.RequestTimeout)
		defer cancel()
	}
	resp, err := experiments.EvaluateRequest(ctx, req)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			return nil, &httpError{code: http.StatusGatewayTimeout, msg: fmt.Sprintf("evaluation exceeded the %v request timeout", s.opts.RequestTimeout)}
		case errors.Is(err, context.Canceled):
			return nil, &httpError{code: http.StatusServiceUnavailable, msg: "request cancelled"}
		default:
			// Validation re-runs inside EvaluateRequest; anything it
			// rejects after the parse above is still a client error.
			return nil, &httpError{code: http.StatusBadRequest, msg: err.Error()}
		}
	}
	data, err := json.Marshal(resp)
	if err != nil {
		return nil, &httpError{code: http.StatusInternalServerError, msg: "response encoding failed"}
	}
	data = append(data, '\n') // exact writeJSON framing, so all paths are byte-identical
	s.respCache.put(ringKey, data)
	return data, nil
}

// maxBodyPrealloc caps how much readBody allocates up front on the word
// of a Content-Length header, so a header that lies cannot force a large
// allocation; a bigger body grows the buffer as it arrives.
const maxBodyPrealloc = 64 << 10

// readBody reads the size-capped request body into a buffer sized from
// Content-Length, so a typical body takes one allocation instead of
// io.ReadAll's doubling.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	size := int64(512) // io.ReadAll's starting size when the length is unknown
	if r.ContentLength > 0 {
		size = min(r.ContentLength, maxBodyPrealloc)
	}
	size = max(0, min(size, limit))
	// The spare byte lets the final read see EOF without growing the buffer.
	buf := make([]byte, 0, size+1)
	for {
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// writeBodyError maps a readBody failure to 413 (over the cap) or 400.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		return
	}
	writeError(w, http.StatusBadRequest, "reading body: %v", err)
}

// schemeInfo describes one accepted scheme kind for /v1/schemes.
type schemeInfo struct {
	Kind    string `json:"kind"`
	Example string `json:"example"`
}

var schemeExamples = map[string]string{
	"raw":       "raw",
	"gray":      "gray",
	"spatial":   "spatial:width=4",
	"businvert": "businvert",
	"inversion": "inversion:patterns=4",
	"pbi":       "pbi:groups=4",
	"stride":    "stride:strides=4",
	"window":    "window:entries=8",
	"context":   "context:table=64,sr=8,divide=4096,transition=false",
	"optmem":    "optmem:extra=2",
	"vc":        "vc:extra=2",
	"lowweight": "lowweight:groups=4,extra=1",
	"dvs":       "dvs:extra=2,vdd=80",
}

// handleSchemes answers GET /v1/schemes with the accepted scheme grammar.
func (s *Server) handleSchemes(w http.ResponseWriter, r *http.Request) {
	kinds := coding.SchemeKinds()
	out := make([]schemeInfo, 0, len(kinds))
	for _, k := range kinds {
		out = append(out, schemeInfo{Kind: k, Example: schemeExamples[k]})
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"schemes": out,
		"grammar": "kind[:key=value[,key=value...]]; common keys: width=1..62, lambda>=0",
	})
}

// workloadInfo describes one registered workload for /v1/workloads.
type workloadInfo struct {
	Name        string   `json:"name"`
	Suite       string   `json:"suite"`
	Description string   `json:"description"`
	Buses       []string `json:"buses"`
}

// handleWorkloads answers GET /v1/workloads with the evaluable sources.
func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	all := workload.All()
	out := make([]workloadInfo, 0, len(all))
	for _, wl := range all {
		out = append(out, workloadInfo{
			Name:        wl.Name,
			Suite:       wl.Suite.String(),
			Description: wl.Description,
			Buses:       []string{"reg", "mem", "addr"},
		})
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"workloads": out})
}

// handleHealthz answers GET /healthz: 200 while serving, 503 once
// shutdown has begun (so load balancers stop routing new traffic while
// in-flight requests drain).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics answers GET /metrics in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.render(w, s)
}
