package telemetry

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// Continuous profiling: a background loop that captures a short CPU
// profile plus a heap snapshot every cycle into an on-disk ring of
// bounded size, so "where did the last bad minute go" is answerable
// after the fact without having had pprof attached at the time. File
// names embed the process start time and a cycle sequence number
// (cpu-<start>-<seq>.pprof / heap-<start>-<seq>.pprof), so
// lexicographic order is capture order and pruning keeps the newest.

// Profiler is a running continuous profiler. Create with
// StartProfiler; Stop halts the loop and finishes any in-flight
// capture.
type Profiler struct {
	dir      string
	interval time.Duration
	cpuDur   time.Duration
	keep     int
	logf     func(string, ...any)
	prefix   string

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// StartProfiler begins continuous CPU+heap profiling into dir
// (created if missing) and returns the running profiler: a 60 s cycle
// with a 5 s CPU window, keeping the 16 newest files per kind. logf,
// when non-nil, receives capture errors (the loop keeps running; a
// transiently busy CPU profiler must not kill it). The first cycle
// starts immediately, so even short-lived processes leave a capture
// behind.
func StartProfiler(dir string, logf func(format string, args ...any)) (*Profiler, error) {
	return startProfiler(&Profiler{dir: dir, interval: 60 * time.Second, cpuDur: 5 * time.Second, keep: 16, logf: logf})
}

// startProfiler starts p, whose dir, interval, cpuDur (at most half
// the interval), keep and logf are set.
func startProfiler(p *Profiler) (*Profiler, error) {
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return nil, fmt.Errorf("telemetry: profile dir: %w", err)
	}
	if p.logf == nil {
		p.logf = func(string, ...any) {}
	}
	p.prefix = fmt.Sprintf("%d-%d", time.Now().Unix(), os.Getpid())
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	go p.loop()
	return p, nil
}

// Stop halts the profiler, finishing (not abandoning) an in-flight
// CPU window, and waits for the loop to exit.
func (p *Profiler) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}

func (p *Profiler) loop() {
	defer close(p.done)
	for seq := 0; ; seq++ {
		cycleStart := time.Now()
		stopping := p.captureCPU(seq)
		p.captureHeap(seq)
		p.prune()
		if stopping {
			return
		}
		wait := p.interval - time.Since(cycleStart)
		if wait < 0 {
			wait = 0
		}
		select {
		case <-p.stop:
			return
		case <-time.After(wait):
		}
	}
}

// file returns the capture path for one kind and cycle.
func (p *Profiler) file(kind string, seq int) string {
	return filepath.Join(p.dir, fmt.Sprintf("%s-%s-%06d.pprof", kind, p.prefix, seq))
}

// captureCPU profiles CPU for the configured window (cut short by
// Stop). It reports whether Stop was requested during the window, so
// the loop can exit after flushing this cycle. Start failures — e.g.
// another CPU profile already running via /debug/pprof/profile — are
// logged and skipped, not fatal.
func (p *Profiler) captureCPU(seq int) (stopping bool) {
	path := p.file("cpu", seq)
	f, err := os.Create(path)
	if err != nil {
		p.logf("telemetry: profiler: %v\n", err)
		return false
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		p.logf("telemetry: profiler: cpu profile: %v\n", err)
		f.Close()
		os.Remove(path)
		return false
	}
	select {
	case <-p.stop:
		stopping = true
	case <-time.After(p.cpuDur):
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		p.logf("telemetry: profiler: %v\n", err)
	}
	return stopping
}

// captureHeap writes a point-in-time heap profile.
func (p *Profiler) captureHeap(seq int) {
	path := p.file("heap", seq)
	f, err := os.Create(path)
	if err != nil {
		p.logf("telemetry: profiler: %v\n", err)
		return
	}
	err = pprof.Lookup("heap").WriteTo(f, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		p.logf("telemetry: profiler: heap profile: %v\n", err)
	}
}

// prune keeps the newest keep files per kind (lexicographic name order
// is capture order within a process; across restarts the unix-time
// prefix keeps it chronological) and removes the rest, bounding the
// ring even when several processes shared the directory.
func (p *Profiler) prune() {
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		p.logf("telemetry: profiler: %v\n", err)
		return
	}
	byKind := map[string][]string{}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".pprof") {
			continue
		}
		kind, _, ok := strings.Cut(name, "-")
		if !ok {
			continue
		}
		byKind[kind] = append(byKind[kind], name)
	}
	for _, names := range byKind {
		if len(names) <= p.keep {
			continue
		}
		sort.Strings(names)
		for _, name := range names[:len(names)-p.keep] {
			if err := os.Remove(filepath.Join(p.dir, name)); err != nil {
				p.logf("telemetry: profiler: %v\n", err)
			}
		}
	}
}
