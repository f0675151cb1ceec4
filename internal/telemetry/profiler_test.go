package telemetry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestProfilerCapturesAndStops(t *testing.T) {
	dir := t.TempDir()
	p, err := StartProfiler(dir, ProfilerOptions{
		Interval:    50 * time.Millisecond,
		CPUDuration: 10 * time.Millisecond,
		Keep:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for at least one full cycle's files to land.
	waitFor(t, func() bool {
		cpu, _ := filepath.Glob(filepath.Join(dir, "cpu-*.pprof"))
		heap, _ := filepath.Glob(filepath.Join(dir, "heap-*.pprof"))
		return len(cpu) >= 1 && len(heap) >= 1
	})
	p.Stop()
	p.Stop() // idempotent

	heaps, _ := filepath.Glob(filepath.Join(dir, "heap-*.pprof"))
	for _, f := range heaps {
		if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
			t.Errorf("heap capture %s empty or unreadable: %v", f, err)
		}
	}
}

func TestProfilerPrunesRing(t *testing.T) {
	dir := t.TempDir()
	// Pre-seed the directory with stale captures from an "older process"
	// (lexicographically earlier prefixes) so one cycle must prune.
	for i := 0; i < 5; i++ {
		name := filepath.Join(dir, "heap-0-0-00000"+string(rune('0'+i))+".pprof")
		if err := os.WriteFile(name, []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p, err := StartProfiler(dir, ProfilerOptions{
		Interval:    40 * time.Millisecond,
		CPUDuration: 5 * time.Millisecond,
		Keep:        2,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		heaps, _ := filepath.Glob(filepath.Join(dir, "heap-*.pprof"))
		if len(heaps) != 2 {
			return false
		}
		// The survivors must be the newest: no stale prefix remains.
		for _, f := range heaps {
			if strings.Contains(filepath.Base(f), "heap-0-0-") {
				return false
			}
		}
		return true
	})
	p.Stop()
}

func TestProfilerBadDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := StartProfiler(filepath.Join(file, "sub"), ProfilerOptions{}); err == nil {
		t.Fatal("StartProfiler into a file path succeeded, want error")
	}
}
