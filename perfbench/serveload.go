package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"regexp"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"buspower/internal/experiments"
	"buspower/internal/workload"
)

const (
	// serveConns is the number of closed-loop client connections: SDK and
	// `buspower job` callers each wait for their reply.
	serveConns = 2
	// serveSetups is how often a run starts and warms a server; setup_s
	// is their median and the last one serves the timed phase.
	serveSetups = 9
	// sampleEvery picks the responses compared byte for byte with the
	// in-process engine (a prime, so samples cover both request kinds).
	sampleEvery = 61
	// tailP is the reported tail percentile.
	tailP = 0.99
	// serveWindows is how many equal windows the timed phase is cut into.
	// rps, p50_ms and p99_ms are medians over the quiet ones: at least
	// quietWindows with the least host steal, and every window whose
	// steal is within quietTol of the least.
	serveWindows = 10
	quietWindows = 3
	quietTol     = 0.01
	// serveWarmup is how long the sequence runs, untimed, before the timed
	// phase, so the server's heap and GC pacing reach their steady state.
	serveWarmup = 2 * time.Second
	// warmupOffset starts the warm-up's requests far past any index the
	// timed phase reaches, so warm-up never fills a cache it uses.
	warmupOffset = 1 << 30
)

var servingAddr = regexp.MustCompile(`msg=serving addr=(\S+)`)

// serverProc is one running `buspower serve` child.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	logMu  sync.Mutex
	log    bytes.Buffer
	closed chan struct{} // stderr reached EOF
}

// startServer launches `buspower serve` on an ephemeral loopback port
// over the given trace cache and waits until /healthz answers. Ending ctx
// kills the server.
func startServer(ctx context.Context, bin, traceDir string) (*serverProc, error) {
	cmd := exec.CommandContext(ctx, bin, "serve", "-addr", "127.0.0.1:0", "-quiet-access-log", "-trace-cache", traceDir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &serverProc{cmd: cmd, closed: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(s.closed)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			s.logMu.Lock()
			s.log.WriteString(line + "\n")
			s.logMu.Unlock()
			if m := servingAddr.FindStringSubmatch(line); m != nil && !sent {
				addrCh <- m[1]
				sent = true
			}
		}
	}()
	select {
	case addr := <-addrCh:
		s.base = "http://" + addr
	case <-s.closed:
		s.stop()
		return nil, fmt.Errorf("buspower serve exited before listening: %s", s.logTail())
	case <-time.After(20 * time.Second):
		s.stop()
		return nil, fmt.Errorf("buspower serve did not report its address")
	}
	for i := 0; ; i++ {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if i > 200 {
			s.stop()
			return nil, fmt.Errorf("buspower serve never became healthy: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (s *serverProc) logTail() string {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return lastLines(s.log.String(), 5)
}

// stop drains the server with SIGTERM (killing it if the drain hangs),
// waits for it to exit and returns its peak RSS.
func (s *serverProc) stop() (float64, error) {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.closed:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.closed
	}
	err := s.cmd.Wait()
	if s.cmd.ProcessState == nil {
		return 0, err
	}
	return maxRSSMB(s.cmd.ProcessState), err
}

// sample is one response kept for the byte-for-byte check.
type sample struct {
	body, resp []byte
}

// loadResult is what one closed-loop phase measured.
type loadResult struct {
	elapsed   time.Duration
	latencies []float64 // seconds, 200 responses only
	doneAt    []float64 // completion time of each latency, seconds into the phase
	requests  int
	non200    int
	samples   []sample
}

// closedLoop sends body(i) for i = 0, 1, 2, ... over conns connections,
// each sending its next request only after the previous reply arrived,
// until d has passed and at least minReqs requests completed, or ctx ends.
func closedLoop(ctx context.Context, client *http.Client, url string, conns int, d time.Duration, minReqs int, body func(i int) []byte) loadResult {
	var (
		next  atomic.Int64
		mu    sync.Mutex
		res   loadResult
		wg    sync.WaitGroup
		start = time.Now()
	)
	deadline := start.Add(d)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lats, done []float64
			var samples []sample
			reqs, bad := 0, 0
			for {
				if ctx.Err() != nil || time.Now().After(deadline) && int(next.Load()) >= minReqs {
					break
				}
				i := int(next.Add(1)) - 1
				b := body(i)
				t0 := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(b))
				var data []byte
				if err == nil {
					data, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				lat := time.Since(t0)
				reqs++
				if err != nil || resp.StatusCode != http.StatusOK {
					bad++
					continue
				}
				lats = append(lats, lat.Seconds())
				done = append(done, time.Since(start).Seconds())
				if i%sampleEvery == 0 {
					samples = append(samples, sample{body: b, resp: data})
				}
			}
			mu.Lock()
			res.latencies = append(res.latencies, lats...)
			res.doneAt = append(res.doneAt, done...)
			res.samples = append(res.samples, samples...)
			res.requests += reqs
			res.non200 += bad
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// post sends one body and requires a 200.
func post(client *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// fetchSchemes reads the example of every scheme kind from /v1/schemes.
func fetchSchemes(client *http.Client, base string) ([]string, error) {
	resp, err := client.Get(base + "/v1/schemes")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc struct {
		Schemes []struct {
			Kind    string `json:"kind"`
			Example string `json:"example"`
		} `json:"schemes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("/v1/schemes: %w", err)
	}
	var out []string
	for _, s := range doc.Schemes {
		if s.Example == "" {
			return nil, fmt.Errorf("/v1/schemes: kind %s has no example", s.Kind)
		}
		out = append(out, s.Example)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("/v1/schemes lists no schemes")
	}
	return out, nil
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: serveConns,
			MaxConnsPerHost:     serveConns,
			DisableCompression:  true,
		},
	}
}

// serveSetup starts a server over traceDir and warms it: every named
// trace is loaded with a scheme the timed sequence never sends for a
// named source, and, for serve-hit, every hit-set body is cached.
func serveSetup(ctx context.Context, bin, traceDir string, client *http.Client, gen *seqGen, hit bool) (*serverProc, error) {
	srv, err := startServer(ctx, bin, traceDir)
	if err != nil {
		return nil, err
	}
	bodies := gen.warmNamedBodies()
	if hit {
		bodies = gen.hitSet()
	}
	for _, b := range bodies {
		if _, err := post(client, srv.base+"/v1/eval", b); err != nil {
			srv.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return srv, nil
}

// prepareServe populates a trace cache with every named trace through a
// first, untimed server and returns the request generator.
func prepareServe(e *runEnv, client *http.Client) (string, *seqGen, error) {
	traceDir, err := e.freshDir("serve-cache")
	if err != nil {
		return "", nil, err
	}
	srv, err := startServer(e.ctx, e.bin, traceDir)
	if err != nil {
		return "", nil, err
	}
	schemes, err := fetchSchemes(client, srv.base)
	if err != nil {
		srv.stop()
		return "", nil, err
	}
	gen := newSeqGen(e.seed, schemes, namedSources(workload.Names()))
	for _, b := range gen.warmNamedBodies() {
		if _, err := post(client, srv.base+"/v1/eval", b); err != nil {
			srv.stop()
			return "", nil, fmt.Errorf("populating traces: %w", err)
		}
	}
	if _, err := srv.stop(); err != nil {
		return "", nil, fmt.Errorf("stopping the populating server: %w", err)
	}
	return traceDir, gen, nil
}

// serveRun is one measured serve phase.
type serveRun struct {
	setup    []float64
	lr       loadResult
	cpu      time.Duration // server CPU over the timed phase
	rssMB    float64
	traceDir string
	gen      *seqGen
	steal    *stealSampler // host steal over the timed phase
	// prom0 and prom1 are /metrics scrapes around the timed phase.
	prom0, prom1 []promSample
}

// measureServe prepares the trace cache, starts and warms a server
// setups times (the last one serves), and drives the workload's sequence
// over serveConns closed-loop connections for d.
func measureServe(e *runEnv, hit bool, setups int, d time.Duration) (*serveRun, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	traceDir, gen, err := prepareServe(e, client)
	if err != nil {
		return nil, err
	}
	run := &serveRun{traceDir: traceDir, gen: gen}
	var srv *serverProc
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		s, err := serveSetup(e.ctx, e.bin, traceDir, client, gen, hit)
		if err != nil {
			return nil, err
		}
		run.setup = append(run.setup, time.Since(t0).Seconds())
		client.CloseIdleConnections()
		if k < setups-1 {
			if _, err := s.stop(); err != nil {
				return nil, err
			}
			continue
		}
		srv = s
	}

	body := gen.missBody
	if hit {
		hits := gen.hitSet()
		body = func(i int) []byte { return hits[gen.hitIndex(i)] }
	}
	fail := func(err error) (*serveRun, error) {
		srv.stop()
		return nil, err
	}
	// The load generator holds one thread, so it takes as little CPU
	// from the server it shares the machine with as it can.
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	warm := closedLoop(e.ctx, client, srv.base+"/v1/eval", serveConns, serveWarmup, 0,
		func(i int) []byte { return body(warmupOffset + i) })
	if warm.non200 > 0 {
		return fail(fmt.Errorf("warm-up: %d of %d requests failed", warm.non200, warm.requests))
	}
	if run.prom0, err = scrape(client, srv.base); err != nil {
		return fail(err)
	}
	cpu0, err := procCPU(srv.cmd.Process.Pid)
	if err != nil {
		return fail(err)
	}
	steal := startStealSampler()
	run.lr = closedLoop(e.ctx, client, srv.base+"/v1/eval", serveConns, d, samplesForTail(tailP), body)
	steal.close()
	run.steal = steal
	cpu1, err := procCPU(srv.cmd.Process.Pid)
	if err != nil {
		return fail(err)
	}
	run.cpu = cpu1 - cpu0
	if run.prom1, err = scrape(client, srv.base); err != nil {
		return fail(err)
	}
	client.CloseIdleConnections()
	if run.rssMB, err = srv.stop(); err != nil {
		return nil, fmt.Errorf("server exit: %w (%s)", err, srv.logTail())
	}
	if len(run.lr.latencies) == 0 {
		return nil, fmt.Errorf("no request succeeded (%d attempted)", run.lr.requests)
	}
	return run, nil
}

// scrape reads and parses the server's /metrics.
func scrape(client *http.Client, base string) ([]promSample, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(string(data))
}

// rps is 200 responses per second of the timed phase.
func (r *serveRun) rps() float64 { return float64(len(r.lr.latencies)) / r.lr.elapsed.Seconds() }

// serveE2E runs one serve workload against a `buspower serve` child.
func serveE2E(e *runEnv, hit bool) (*outcome, error) {
	run, err := measureServe(e, hit, serveSetups, e.seconds)
	if err != nil {
		return nil, err
	}
	lr := run.lr
	out := newOutcome()
	mismatches, err := verifySamples(run.traceDir, lr.samples)
	if err != nil {
		return nil, err
	}
	out.attempted = lr.requests
	out.failed = lr.non200 + mismatches
	wins := splitWindows(lr.doneAt, lr.latencies, lr.elapsed.Seconds(), serveWindows, tailP)
	if len(wins) == 0 {
		// Too few requests for per-window tails: the phase ran on until it
		// had enough for one.
		wins = splitWindows(lr.doneAt, lr.latencies, lr.elapsed.Seconds(), 1, tailP)
	}
	if len(wins) == 0 {
		return nil, fmt.Errorf("%d samples cannot carry a p%g", len(lr.latencies), tailP*100)
	}
	var winRPS, winP50, winP99, winSteal []float64
	for i := range wins {
		wins[i].steal = run.steal.share(wins[i].from, wins[i].to)
		winRPS = append(winRPS, wins[i].rps)
		winP50 = append(winP50, wins[i].p50*1000)
		winP99 = append(winP99, wins[i].p99*1000)
		winSteal = append(winSteal, wins[i].steal)
	}
	var rpsQ, p50Q, p99Q []float64
	quiet := quietest(wins, quietWindows, quietTol)
	for _, w := range quiet {
		rpsQ = append(rpsQ, w.rps)
		p50Q = append(p50Q, w.p50*1000)
		p99Q = append(p99Q, w.p99*1000)
	}
	rps, p50, p99 := median(rpsQ), median(p50Q), median(p99Q)
	cpuPerReq := run.cpu.Seconds() * 1000 / float64(lr.requests)
	out.set("setup_s", "s", median(run.setup))
	out.set("rps", "1/s", rps)
	out.set("p50_ms", "ms", p50)
	out.set("p99_ms", "ms", p99)
	out.set("server_cpu_ms_per_req", "ms", cpuPerReq)
	out.set("max_rss_mb", "MB", run.rssMB)
	// Per 1000 requests, so the regen-shaped metrics keep one meaning:
	// the wall and server CPU time one unit of work takes.
	out.set("wall_s", "s", 1000/rps)
	out.set("cpu_s", "s", cpuPerReq)
	_, beyond := percentileRank(len(lr.latencies)/len(wins), tailP)
	out.context["latency_samples"] = len(lr.latencies)
	out.context["p99_samples_beyond"] = beyond
	out.context["verified_samples"] = len(lr.samples)
	out.context["connections"] = serveConns
	out.context["window_rps"] = winRPS
	out.context["window_p50_ms"] = winP50
	out.context["window_p99_ms"] = winP99
	out.context["window_steal"] = winSteal
	out.context["quiet_windows"] = len(quiet)
	return out, nil
}

// verifySamples recomputes each sampled response in-process through
// experiments.ParseEvalRequest, EvaluateRequest and json.Marshal, and
// counts those whose bytes differ from what the server sent. Named
// traces come from the same trace cache the server used.
func verifySamples(traceDir string, samples []sample) (int, error) {
	if _, err := workload.SetTraceCacheDir(traceDir); err != nil {
		return 0, err
	}
	defer workload.SetTraceCacheDir("")
	bad := 0
	for _, s := range samples {
		want, err := inProcessResponse(s.body)
		if err != nil || !bytes.Equal(want, s.resp) {
			bad++
		}
	}
	return bad, nil
}

// inProcessResponse is the engine's answer to one body, framed exactly
// as the server frames a 200.
func inProcessResponse(body []byte) ([]byte, error) {
	req, err := experiments.ParseEvalRequest(body)
	if err != nil {
		return nil, err
	}
	resp, err := experiments.EvaluateRequest(context.Background(), req)
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
