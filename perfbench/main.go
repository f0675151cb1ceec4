// Command perfbench is the repository's end-to-end benchmark. It
// generates seeded inputs, starts the real binaries (aaserve, aarelay,
// aareplay) as subprocesses, drives them from this single client
// process, checks every output, and prints the metrics as one JSON
// object on the last line of stdout.
//
// Run it through the launcher, which builds everything first:
//
//	bash perfbench/run.sh --workload solve-small --seed 1 --seconds 8 --trace 0
//
// Workloads (see workloads.go for why each exists):
//
//	solve-small   POST /solve to one aaserve, n=100 uniform, cache off
//	batch-stream  streaming POST /solve/batch, n=10⁴ powerlaw, cache off
//	churn-relay   client → aarelay (shared cache) → aaserve (memory cache,
//	              warm starts), n=1000 discrete, permuted repeats, drifts
//	              and fresh instances
//	replay-fleet  aareplay on a 64-server, 10⁵-thread fleet, no HTTP
//
// Each run executes a fixed request script whose length is the
// workload's calibrated rate times --seconds, so the same seed and
// --seconds give the same work and every count repeats exactly.
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same
// script twice, first untraced and then traced: the traced pass replays
// each request's inputs through the layers' public functions in this
// process after its round trip, records spans in memory, writes them as
// JSONL to .bench_build/perfbench-spans-<workload>.jsonl at exit, and
// reports the per-layer metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload runner needs from the command line.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	root     string // repository checkout
	bin      string // directory holding the built binaries
	work     string // scratch directory inside the checkout
	procs    int    // nproc: GOMAXPROCS and -workers of every server
}

// outcome is what a workload runner hands back to main.
type outcome struct {
	attempted int
	failed    int
	problems  []string // failed output checks, for the report
	metrics   map[string]metric
	info      map[string]any // extra, non-contract detail for the report line
	spans     *recorder      // traced runs only
}

func (o *outcome) fail(format string, args ...any) { o.failN(1, format, args...) }

// failN counts n failed operations under one problem line.
func (o *outcome) failN(n int, format string, args ...any) {
	o.failed += n
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) set(name, unit string, v float64) {
	o.metrics[name] = metric{Value: v, Unit: unit}
}

var runners = map[string]func(*config) (*outcome, error){
	"solve-small":  runSolveSmall,
	"batch-stream": runBatchStream,
	"churn-relay":  runChurnRelay,
	"replay-fleet": runReplayFleet,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: solve-small, batch-stream, churn-relay or replay-fleet")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 8, "target length of the timed window; sizes the request script")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository checkout")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory with aaserve, aarelay and aareplay")
	flag.StringVar(&cfg.work, "work", ".bench_build", "scratch directory for spans, scenarios and reports")
	flag.Parse()
	runner, ok := runners[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", traceFlag)
	}
	cfg.trace = traceFlag == 1
	cfg.procs = runtime.NumCPU()
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}

	calBefore := calibrate()
	out, err := runner(&cfg)
	if err != nil {
		return err
	}
	// The host's CPU speed drifts by tens of percent over minutes; a
	// fixed CPU-bound probe before and after the run shows how fast the
	// machine was while it ran. It is context for the numbers only.
	out.info["cpu_probe_ms"] = map[string]float64{"before": calBefore, "after": calibrate()}
	if out.spans != nil {
		path := filepath.Join(cfg.work, "perfbench-spans-"+cfg.workload+".jsonl")
		if err := out.spans.writeJSONL(path); err != nil {
			return err
		}
		out.info["spans_file"] = path
	}
	if out.attempted < 1 {
		return errors.New("workload attempted no operations")
	}
	out.info["failed_frac"] = float64(out.failed) / float64(out.attempted)
	out.info["problems"] = out.problems
	out.info["env"] = environment(&cfg)
	report, err := json.Marshal(map[string]any{"report": out.info})
	if err != nil {
		return err
	}
	fmt.Println(string(report))

	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		for _, p := range out.problems {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
		}
		os.Exit(1)
	}
	return nil
}

// environment records what the numbers were measured on.
func environment(cfg *config) map[string]any {
	commit, source := revision(cfg.root)
	conns := 1
	if cfg.trace && cfg.workload == "churn-relay" {
		conns = 2
	}
	return map[string]any{
		"workload":    cfg.workload,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"trace":       cfg.trace,
		"nproc":       cfg.procs,
		"go":          runtime.Version(),
		"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
		"commit":      commit,
		"source_sha":  source,
		// One request connection; a traced churn-relay run adds one to
		// the shadow node.
		"client": map[string]int{"gomaxprocs": runtime.GOMAXPROCS(0), "connections": conns},
		// Every server is started with GOMAXPROCS=nproc in its
		// environment and -workers nproc (aaserve); aareplay runs
		// in-process solves at GOMAXPROCS=nproc.
		"servers": map[string]int{"gomaxprocs": cfg.procs, "workers": cfg.procs},
	}
}

// revision names the code under test. An exported checkout is not a git
// repository, so the commit is read from .git when present and the
// source hash (SHA-256 over every .go file and go.mod outside
// .bench_build, in path order) identifies the tree either way.
func revision(root string) (commit, source string) {
	commit = "unknown"
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
				commit = strings.TrimSpace(string(b))
			}
		} else {
			commit = ref
		}
	}
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return commit, hex.EncodeToString(h.Sum(nil))[:16]
}

// calibrate returns the median time, in ms, of five SHA-256 passes over
// a fixed 16 MiB buffer.
func calibrate() float64 {
	buf := make([]byte, 16<<20)
	var ms []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		sha256.Sum256(buf)
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	sort.Float64s(ms)
	return ms[2]
}
