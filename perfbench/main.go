// Command perfbench is the repository benchmark. It builds nothing
// itself (run.sh builds buspower and this program first); it drives the
// built buspower binary from outside on four named workloads and prints
// one JSON result line.
//
//	perfbench -root DIR -bin BUSPOWER --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of fresh buspower
// processes; with --trace 1 it runs the traced, in-process run instead
// and reports the per-layer metrics. See README.md for the workloads,
// the metrics and which layer metric should move which end-to-end one.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// heldOutSeed is the seed no tuning run used; a later claim measured on
// other seeds must also hold on it.
const heldOutSeed = 9001

// workloads maps each workload name to its end-to-end runner.
var workloads = map[string]func(*runEnv) (*outcome, error){
	"regen-cold": func(e *runEnv) (*outcome, error) { return regenE2E(e, false) },
	"regen-warm": func(e *runEnv) (*outcome, error) { return regenE2E(e, true) },
	"serve-miss": func(e *runEnv) (*outcome, error) { return serveE2E(e, false) },
	"serve-hit":  func(e *runEnv) (*outcome, error) { return serveE2E(e, true) },
}

// runEnv is what every workload runner gets.
type runEnv struct {
	root     string // checkout root
	bin      string // built buspower binary
	workload string
	seed     uint64
	seconds  time.Duration
	ctx      context.Context // ends on SIGINT or SIGTERM
	dir      string          // scratch directory of this run, removed at exit
	keepDir  string          // per-run artifacts kept after exit (spans, profiles)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload runner measured.
type outcome struct {
	metrics   map[string]metric
	attempted int
	failed    int
	// context holds facts about the run that are not metrics, such as
	// sample counts; it is printed next to the machine context.
	context map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, context: map[string]any{}}
}

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{Value: v, Unit: unit} }

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "spread" {
		if err := runSpread(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench spread:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		root     = flag.String("root", ".", "checkout root (holds results/ and cmd/)")
		bin      = flag.String("bin", "", "built buspower binary")
		workload = flag.String("workload", "", "regen-cold, regen-warm, serve-miss or serve-hit")
		seed     = flag.Uint64("seed", 1, "request-sequence seed (the regen workloads are the fixed paper suite and ignore it)")
		seconds  = flag.Int("seconds", 15, "length of the timed phase")
		traced   = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer run")
	)
	flag.Parse()
	runner, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if *bin == "" {
		return fmt.Errorf("-bin is required")
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return err
	}
	absBin, err := filepath.Abs(*bin)
	if err != nil {
		return err
	}
	base := filepath.Join(absRoot, ".bench_build", "perfbench")
	tag := fmt.Sprintf("%s-seed%d-trace%d", *workload, *seed, *traced)
	dir := filepath.Join(base, "runs", tag+"-"+strconv.Itoa(os.Getpid()))
	keep := filepath.Join(base, "artifacts", tag)
	dirs := []string{dir}
	if *traced == 1 {
		dirs = append(dirs, keep)
	}
	for _, d := range dirs {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	defer os.RemoveAll(dir)
	// A signal ends the run: children are killed, the scratch directory
	// is removed and no result is printed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	env := &runEnv{root: absRoot, bin: absBin, workload: *workload, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second, ctx: ctx, dir: dir, keepDir: keep}

	steal0, okSteal0 := stealTicks()
	start := time.Now()
	var out *outcome
	if *traced == 1 {
		out, err = tracedRun(env)
	} else {
		out, err = runner(env)
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return err
	}
	mctx := machineContext(absRoot)
	if steal1, ok := stealTicks(); ok && okSteal0 {
		mctx["host_steal_share"] = float64(steal1-steal0) / (time.Since(start).Seconds() * 100 * float64(runtime.NumCPU()))
	}
	mctx["workload"] = *workload
	mctx["seed"] = *seed
	mctx["held_out_seed"] = heldOutSeed
	mctx["seconds"] = *seconds
	mctx["trace"] = *traced
	mctx["failed_frac"] = failedFrac(out.failed, out.attempted)
	for k, v := range out.context {
		mctx[k] = v
	}
	line, err := json.Marshal(map[string]any{"context": mctx})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	res := result{Correct: out.failed == 0 && out.attempted > 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics}
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
