// Package experiments reproduces every table and figure of the paper's
// evaluation. Each runner is a pure function of its Config, returning a
// Table whose rows/series correspond to what the paper plots; cmd/buspower
// prints them as TSV and bench_test.go regenerates them under
// go test -bench.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"buspower/internal/coding"
	"buspower/internal/workload"
)

// Config controls experiment scale.
type Config struct {
	// Run bounds the per-workload simulation.
	Run workload.RunConfig
	// Quick trims sweep ranges and trace lengths for smoke tests and
	// benchmarks; the full configuration reproduces the paper's axes.
	Quick bool
	// Verify selects the decoder round-trip policy for every evaluation
	// (see coding.VerifyPolicy). The zero value is full verification —
	// tests get the strictest checking by default; cmd/buspower relaxes
	// it to sampled via -verify. Results are bit-identical either way.
	Verify coding.VerifyPolicy
	// Parallel bounds the goroutine fan-out of a single experiment's
	// inner sweeps when it runs outside RunAll (which brings its own
	// pool): the async job engine sets it to its per-item CPU share so a
	// lone batch item can still shard its grid across spare cores.
	// Values <= 1 keep the serial path; it is ignored when RunAll has
	// already attached an engine.
	Parallel int

	// ctx and eng are set by RunAll: ctx carries cancellation into runner
	// inner loops, eng bounds their goroutine fan-out. Both nil under the
	// plain serial Run path, where parFor degrades to a simple loop.
	ctx context.Context
	eng *engine
}

// DefaultConfig returns the full-scale configuration.
func DefaultConfig() Config {
	return Config{Run: workload.DefaultRunConfig()}
}

// QuickConfig returns a reduced configuration for benches and smoke tests.
func QuickConfig() Config {
	return Config{
		Run:   workload.RunConfig{MaxInstructions: 250_000, MaxBusValues: 25_000},
		Quick: true,
	}
}

// Table is one reproduced artifact.
type Table struct {
	// ID is the experiment identifier, e.g. "fig15" or "table3".
	ID string
	// Title describes the artifact, mirroring the paper's caption.
	Title string
	// Columns are the header labels.
	Columns []string
	// Rows hold formatted cells; Rows[i][j] belongs to Columns[j].
	Rows [][]string
}

// AddRow appends a row, formatting each cell: strings pass through,
// float64s use %.4g, ints use %d.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = strconv.FormatFloat(v, 'g', 4, 64)
		case int:
			row[i] = strconv.Itoa(v)
		case uint64:
			row[i] = strconv.FormatUint(v, 10)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Float parses the cell at (row, col) as a number.
func (t *Table) Float(row, col int) (float64, error) {
	if row < 0 || row >= len(t.Rows) || col < 0 || col >= len(t.Rows[row]) {
		return 0, fmt.Errorf("experiments: cell (%d,%d) out of range in %s", row, col, t.ID)
	}
	return strconv.ParseFloat(t.Rows[row][col], 64)
}

// Column returns the index of the named column.
func (t *Table) Column(name string) (int, error) {
	for i, c := range t.Columns {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("experiments: no column %q in %s", name, t.ID)
}

// TSV renders the table with a title comment, header and tab-separated
// rows.
func (t *Table) TSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s\n", t.ID, t.Title)
	b.WriteString(strings.Join(t.Columns, "\t"))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, "\t"))
		b.WriteByte('\n')
	}
	return b.String()
}

// Runner produces one artifact.
type Runner struct {
	// ID is the registry key.
	ID string
	// Title mirrors the paper's caption.
	Title string
	// Run executes the experiment.
	Run func(Config) (*Table, error)
}

var (
	regMu    sync.Mutex
	registry = map[string]Runner{}
)

func register(r Runner) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[r.ID]; dup {
		panic("experiments: duplicate id " + r.ID)
	}
	registry[r.ID] = r
}

// Run executes the experiment with the given id.
func Run(id string, cfg Config) (*Table, error) {
	regMu.Lock()
	r, ok := registry[id]
	regMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (see IDs())", id)
	}
	if cfg.eng == nil && cfg.Parallel > 1 {
		// Standalone run with an explicit parallelism budget: give the
		// runner's inner parFor loops a pool of its own. Row assembly is
		// index-slotted, so the table stays byte-identical to serial.
		cfg.eng = newEngine(cfg.Parallel, nil)
	}
	t, err := r.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	return t, nil
}

// RunContext executes the experiment with the given id, carrying ctx
// into the runner's inner sweep loops so a long full-mode experiment can
// be cancelled cooperatively between evaluation points. It is the async
// job engine's per-item entry point; Run is the plain uncancellable
// path and produces byte-identical tables.
func RunContext(ctx context.Context, id string, cfg Config) (*Table, error) {
	if ctx != nil {
		cfg.ctx = ctx
	}
	return Run(id, cfg)
}

// IDs lists all experiment identifiers in a stable order: tables first,
// then figures, each numerically.
func IDs() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	rank := func(id string) (class, num int) {
		switch {
		case strings.HasPrefix(id, "table"):
			n, _ := strconv.Atoi(id[len("table"):])
			return 0, n
		case strings.HasPrefix(id, "fig"):
			n, _ := strconv.Atoi(id[len("fig"):])
			return 1, n
		default: // extensions sort last, alphabetically
			return 2, 0
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ci, ni := rank(out[i])
		cj, nj := rank(out[j])
		if ci != cj {
			return ci < cj
		}
		if ni != nj {
			return ni < nj
		}
		return out[i] < out[j]
	})
	return out
}

// Titles returns id -> title for all registered experiments.
func Titles() map[string]string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make(map[string]string, len(registry))
	for id, r := range registry {
		out[id] = r.Title
	}
	return out
}
