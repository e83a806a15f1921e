package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// machineContext records what a number means nothing without: the CPU
// count and model, GOMAXPROCS, the Go version and the code measured.
func machineContext(root string) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commitOf(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commitOf names the measured code: the git commit when the checkout is
// a repository, otherwise a digest of the Go sources and go.mod, which
// identifies the same tree just as well.
func commitOf(root string) string {
	cmd := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	if out, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries cannot be part of the build either
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", rel)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// runSpread summarizes result lines from earlier runs: for every metric
// it prints the median and the interquartile spread as a share of the
// median, the figure the benchmark's bounds are set against. Each file
// holds the output of one run; its last line is the result.
func runSpread(files []string, w io.Writer) error {
	vals := map[string][]float64{}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for k, m := range res.Metrics {
			vals[k] = append(vals[k], m.Value)
		}
	}
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := vals[k]
		if len(v) < 2 {
			fmt.Fprintf(w, "%-32s n=%d median=%.6g\n", k, len(v), median(v))
			continue
		}
		s, err := relSpread(v)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-32s n=%d median=%.6g spread=%.4f\n", k, len(v), median(v), s)
	}
	return nil
}
