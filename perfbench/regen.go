package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

const (
	// minRegenProcs is the fewest -exp all processes a run times, so
	// every reported regen figure is a median of at least three.
	minRegenProcs = 3
	// warmSetups is how often regen-warm populates its trace cache; the
	// setup_s it reports is their median.
	warmSetups = 3
	// coldSetupProbes is how often regen-cold times process start-up.
	coldSetupProbes = 31
	// populateExp simulates and caches every trace -exp all reads (all
	// 17 workloads at full scale) with the least encode work.
	populateExp = "fig19"
)

var (
	doneLine = regexp.MustCompile(`^\[\d+/\d+\] (\S+) done in (\S+)$`)
	diskLine = regexp.MustCompile(`disk (\d+) hits / (\d+) misses \((\d+) errors\)`)
	listIDRe = regexp.MustCompile(`^(\S+)\s`)
)

// regenE2E times full-scale `buspower -exp all` processes, each against
// an empty trace-cache directory (cold) or one populated during set-up
// (warm), and checks every emitted table against results/.
func regenE2E(e *runEnv, warm bool) (*outcome, error) {
	out := newOutcome()
	list, err := runProc(e.ctx, e.bin, "-no-disk-cache", "-list")
	if err != nil {
		return nil, err
	}
	ids := listIDs(list.stdout)
	expected, err := expectedTables(e.root, ids)
	if err != nil {
		return nil, err
	}

	// Set-up. Cold: nothing to prepare but the process itself, so set-up
	// is process start-up and registry listing. Warm: populate the trace
	// cache the timed processes will read.
	var setup []float64
	var warmDir string
	if !warm {
		for i := 0; i < coldSetupProbes; i++ {
			st, err := runProc(e.ctx, e.bin, "-no-disk-cache", "-list")
			if err != nil {
				return nil, err
			}
			setup = append(setup, st.wall.Seconds())
		}
	} else {
		for i := 0; i < warmSetups; i++ {
			dir, err := e.freshDir("warm-cache")
			if err != nil {
				return nil, err
			}
			scratch, err := e.freshDir("populate-out")
			if err != nil {
				return nil, err
			}
			st, err := runProc(e.ctx, e.bin, "-exp", populateExp, "-trace-cache", dir, "-o", scratch, "-v")
			if err != nil {
				return nil, err
			}
			setup = append(setup, st.wall.Seconds())
			if warmDir != "" {
				os.RemoveAll(warmDir)
			}
			warmDir = dir
		}
	}

	var walls, cpus, rss, slowest []float64
	deadline := time.Now().Add(e.seconds)
	for k := 0; k < minRegenProcs || time.Now().Before(deadline); k++ {
		cacheDir := warmDir
		if !warm {
			if cacheDir, err = e.freshDir("cold-cache"); err != nil {
				return nil, err
			}
		}
		outDir, err := e.freshDir("tables")
		if err != nil {
			return nil, err
		}
		st, err := runProc(e.ctx, e.bin, "-exp", "all", "-trace-cache", cacheDir, "-o", outDir, "-v")
		if err != nil {
			return nil, err
		}
		walls = append(walls, st.wall.Seconds())
		cpus = append(cpus, st.cpu.Seconds())
		rss = append(rss, st.maxRSSMB)

		// One operation per emitted table, plus one for the cache state
		// the workload promises (cold: no disk hits; warm: no misses).
		out.attempted += len(ids) + 1
		out.failed += compareTables(outDir, expected)
		durs, hits, misses, perr := parseRegenLog(string(st.stderr))
		if perr != nil || len(durs) != len(ids) || (warm && (misses != 0 || hits == 0)) || (!warm && hits != 0) {
			out.failed++
		}
		maxD := 0.0
		for _, d := range durs {
			maxD = max(maxD, d*1000)
		}
		slowest = append(slowest, maxD)
		os.RemoveAll(outDir)
		if !warm {
			os.RemoveAll(cacheDir)
		}
	}

	tables := float64(len(ids))
	out.set("setup_s", "s", median(setup))
	out.set("wall_s", "s", median(walls))
	out.set("cpu_s", "s", median(cpus))
	out.set("max_rss_mb", "MB", median(rss))
	perTable := make([]float64, len(walls))
	for i, w := range walls {
		perTable[i] = tables / w
	}
	out.set("rps", "1/s", median(perTable))
	out.set("p50_ms", "ms", median(walls)*1000)
	out.set("p99_ms", "ms", median(slowest))
	out.set("server_cpu_ms_per_req", "ms", median(cpus)*1000/tables)
	out.context["processes"] = len(walls)
	out.context["proc_wall_s"] = walls
	out.context["proc_cpu_s"] = cpus
	out.context["p50_ms_is"] = "median -exp all process wall"
	out.context["p99_ms_is"] = "median over processes of the slowest experiment, the critical path (a p99 needs 1000 samples)"
	return out, nil
}

// listIDs reads experiment ids from `buspower -list` output.
func listIDs(stdout []byte) []string {
	var ids []string
	for _, line := range strings.Split(string(stdout), "\n") {
		if m := listIDRe.FindStringSubmatch(line); m != nil {
			ids = append(ids, m[1])
		}
	}
	return ids
}

// expectedTables loads results/<id>.tsv for every id: the committed
// tables every regen run must reproduce byte for byte.
func expectedTables(root string, ids []string) (map[string][]byte, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("buspower -list printed no experiments")
	}
	out := make(map[string][]byte, len(ids))
	for _, id := range ids {
		data, err := os.ReadFile(filepath.Join(root, "results", id+".tsv"))
		if err != nil {
			return nil, fmt.Errorf("expected table: %w", err)
		}
		out[id] = data
	}
	return out, nil
}

// compareTables counts the tables in dir that are missing or differ
// from the expected bytes.
func compareTables(dir string, expected map[string][]byte) int {
	bad := 0
	for id, want := range expected {
		got, err := os.ReadFile(filepath.Join(dir, id+".tsv"))
		if err != nil || !bytes.Equal(got, want) {
			bad++
		}
	}
	return bad
}

// parseRegenLog reads the -v progress of one -exp all process: every
// experiment's wall time in seconds, and the disk trace-cache counters.
func parseRegenLog(stderr string) (durs []float64, hits, misses int, err error) {
	sawDisk := false
	for _, line := range strings.Split(stderr, "\n") {
		if m := doneLine.FindStringSubmatch(line); m != nil {
			d, perr := time.ParseDuration(m[2])
			if perr != nil {
				return nil, 0, 0, perr
			}
			durs = append(durs, d.Seconds())
			continue
		}
		if m := diskLine.FindStringSubmatch(line); m != nil {
			hits, _ = strconv.Atoi(m[1])
			misses, _ = strconv.Atoi(m[2])
			sawDisk = true
		}
	}
	if !sawDisk {
		return durs, 0, 0, fmt.Errorf("no disk trace-cache line in -v output")
	}
	return durs, hits, misses, nil
}
