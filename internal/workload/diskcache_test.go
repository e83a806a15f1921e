package workload

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"buspower/internal/cpu"
)

// withTraceCacheDir points the disk cache at a temp directory for the
// test's duration and resets all cache state around it. These tests
// mutate package-global cache configuration, so they must not run in
// parallel with each other.
func withTraceCacheDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	prev, err := SetTraceCacheDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ClearTraceCache()
	t.Cleanup(func() {
		SetTraceCacheDir(prev)
		ClearTraceCache()
	})
	return dir
}

func cacheFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.trc"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

var diskTestCfg = RunConfig{MaxInstructions: 60_000, MaxBusValues: 5_000}

func TestDiskCacheRoundTrip(t *testing.T) {
	dir := withTraceCacheDir(t)

	first, err := Traces("li", diskTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	s := Stats()
	if s.DiskHits != 0 || s.DiskMisses != 1 || s.DiskErrors != 0 {
		t.Fatalf("after cold run: %+v", s)
	}
	files := cacheFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("expected 1 cache file, found %v", files)
	}

	// Drop the in-memory layer; the second call must be served from disk
	// and reproduce the simulated TraceSet exactly, summary included.
	ClearTraceCache()
	second, err := Traces("li", diskTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	s = Stats()
	if s.DiskHits != 1 || s.DiskMisses != 0 || s.DiskErrors != 0 {
		t.Fatalf("after warm run: %+v", s)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("disk-loaded TraceSet differs from the simulated one")
	}
}

func TestDiskCacheCorruptFileFallsBack(t *testing.T) {
	dir := withTraceCacheDir(t)
	want, err := Traces("li", diskTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	path := cacheFiles(t, dir)[0]

	// Flip a payload bit: the checksum must reject the file and the
	// runner must silently re-simulate (and overwrite with a good copy).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ClearTraceCache()
	got, err := Traces("li", diskTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	s := Stats()
	if s.DiskErrors == 0 || s.DiskHits != 0 {
		t.Fatalf("corruption not detected: %+v", s)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("fallback re-simulation produced a different TraceSet")
	}

	// The bad file was repaired: a third cold pass hits disk again.
	ClearTraceCache()
	if _, err := Traces("li", diskTestCfg); err != nil {
		t.Fatal(err)
	}
	if s := Stats(); s.DiskHits != 1 {
		t.Fatalf("repaired entry not reused: %+v", s)
	}
}

func TestDiskCacheStaleVersionIgnored(t *testing.T) {
	dir := withTraceCacheDir(t)
	if _, err := Traces("li", diskTestCfg); err != nil {
		t.Fatal(err)
	}
	path := cacheFiles(t, dir)[0]

	// Simulate a file from an older format: BUSTRC01 magic with junk.
	if err := os.WriteFile(path, []byte("BUSTRC01 leftover from an old build"), 0o644); err != nil {
		t.Fatal(err)
	}
	ClearTraceCache()
	if _, err := Traces("li", diskTestCfg); err != nil {
		t.Fatal(err)
	}
	s := Stats()
	if s.DiskHits != 0 || s.DiskErrors == 0 {
		t.Fatalf("stale-version file not treated as invalid: %+v", s)
	}
}

func TestDiskCacheKeySensitivity(t *testing.T) {
	dir := withTraceCacheDir(t)
	if _, err := Traces("li", diskTestCfg); err != nil {
		t.Fatal(err)
	}
	// A different run bound is a different simulation: new file.
	other := diskTestCfg
	other.MaxInstructions += 1
	if _, err := Traces("li", other); err != nil {
		t.Fatal(err)
	}
	// A different workload too.
	if _, err := Traces("gcc", diskTestCfg); err != nil {
		t.Fatal(err)
	}
	if files := cacheFiles(t, dir); len(files) != 3 {
		t.Fatalf("expected 3 distinct cache files, found %d", len(files))
	}
}

func TestDiskCacheKeyCoversConfig(t *testing.T) {
	w, err := ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	base := traceCacheKey(w, cpu.DefaultConfig(), diskTestCfg)
	altCfg := cpu.DefaultConfig()
	altCfg.RUUSize *= 2
	if traceCacheKey(w, altCfg, diskTestCfg) == base {
		t.Error("cpu.Config change did not change the cache key")
	}
	altW := w
	altW.Source += "\n"
	if traceCacheKey(altW, cpu.DefaultConfig(), diskTestCfg) == base {
		t.Error("program text change did not change the cache key")
	}
}

func TestDiskCacheDisabledByDefault(t *testing.T) {
	// With no directory configured, Traces must not touch the disk
	// counters at all.
	prev, err := SetTraceCacheDir("")
	if err != nil {
		t.Fatal(err)
	}
	ClearTraceCache()
	t.Cleanup(func() {
		SetTraceCacheDir(prev)
		ClearTraceCache()
	})
	if _, err := Traces("li", diskTestCfg); err != nil {
		t.Fatal(err)
	}
	s := Stats()
	if s.DiskHits != 0 || s.DiskMisses != 0 || s.DiskErrors != 0 {
		t.Fatalf("disk layer active while disabled: %+v", s)
	}
}

// TestDiskCacheSharedDirConcurrentWriters models several replicas that
// point -trace-cache at one directory: writers store the same entry at
// once while readers poll it. The atomic temp-and-rename must make every
// read either a plain miss or the complete TraceSet, never a torn or
// checksum-failing file, and must leave no temp files behind.
func TestDiskCacheSharedDirConcurrentWriters(t *testing.T) {
	w, err := ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(w, diskTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	key := traceCacheKey(w, cpu.DefaultConfig(), diskTestCfg)
	path := traceCachePath(dir, key)

	const writers, readers, stores = 4, 4, 10
	var writing, reading sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < writers; i++ {
		writing.Add(1)
		go func() {
			defer writing.Done()
			for j := 0; j < stores; j++ {
				if err := storeTraceSet(dir, key, want); err != nil {
					t.Errorf("store: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < readers; i++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				got, err := loadTraceSet(path, "li")
				switch {
				case errors.Is(err, fs.ErrNotExist):
				case err != nil:
					t.Errorf("read during concurrent stores: %v", err)
					return
				case !reflect.DeepEqual(got, want):
					t.Error("read a TraceSet that differs from the one written")
					return
				}
			}
		}()
	}
	writing.Wait()
	close(done)
	reading.Wait()

	got, err := loadTraceSet(path, "li")
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("final read: err %v, equal %v", err, reflect.DeepEqual(got, want))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != key+".trc" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want only %s.trc", names, key)
	}
}
