package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"aa/internal/telemetry"
)

// ErrUnknownBackend is wrapped by every error caused by a request naming
// a backend that is not in the registry.
var ErrUnknownBackend = errors.New("engine: unknown backend")

// Backend is one named solver in the registry: assign1, assign2,
// polish, ls, greedy, exact and the four placement heuristics, all
// registered by this package's init, so every binary advertises the
// same set. Each one solves Request.Instance.
type Backend struct {
	// Name is the canonical registry key, e.g. "assign2".
	Name string
	// Aliases are alternative names resolving to this backend (the CLI
	// short forms: "a2" for assign2, "gm" for greedy, ...).
	Aliases []string
	// Doc is a one-line description shown by aasolve -h and aaserve
	// /backends.
	Doc string
	// Guaranteed marks backends that carry the paper's α = 2(√2−1)
	// approximation guarantee (Theorems V.5/V.6): Assign1, Assign2 and
	// anything built on top that only increases F (polish, local
	// search). The check middleware holds guaranteed backends to
	// α·F̂ ≤ F ≤ F̂ and everything else to F ≤ F̂ only.
	Guaranteed bool
	// Stochastic marks backends whose result depends on Request.Seed.
	Stochastic bool
	// Handle runs the solve. It must honor ctx between expensive stages,
	// write the result into resp, and treat resp's buffers as reusable
	// scratch (resize, don't assume empty).
	Handle Handler

	// Per-backend request/failure counters, created at register time so
	// every registered backend appears on /metrics at zero.
	requests *telemetry.Counter
	failures *telemetry.Counter
}

var registry = struct {
	mu    sync.RWMutex
	byKey map[string]*Backend // canonical names and aliases
	names []string            // canonical names only, sorted lazily
}{byKey: make(map[string]*Backend)}

// register installs a backend under its canonical name and aliases. It
// panics on an empty name, a nil handler, or any key collision —
// registration happens from init functions, where a collision is a
// programming error, not a runtime condition.
func register(b Backend) {
	if b.Name == "" || b.Handle == nil {
		panic("engine: register needs a name and a handler")
	}
	bk := new(Backend)
	*bk = b
	bk.requests = telemetry.Default.Counter(telemetry.Label("aa_engine_requests_total", "backend", bk.Name))
	bk.failures = telemetry.Default.Counter(telemetry.Label("aa_engine_failures_total", "backend", bk.Name))

	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, key := range append([]string{bk.Name}, bk.Aliases...) {
		if _, dup := registry.byKey[key]; dup {
			panic(fmt.Sprintf("engine: backend %q registered twice", key))
		}
		registry.byKey[key] = bk
	}
	registry.names = append(registry.names, bk.Name)
	sort.Strings(registry.names)
}

// Lookup resolves a canonical name or alias to its backend.
func Lookup(name string) (*Backend, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	bk, ok := registry.byKey[name]
	return bk, ok
}

// Backends returns the sorted canonical names of every registered
// backend.
func Backends() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	return append([]string(nil), registry.names...)
}

// resolve picks the backend for a request: the request's own name if
// set, otherwise the engine's default.
func resolve(name, def string) (*Backend, error) {
	if name == "" {
		name = def
	}
	bk, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownBackend, name, Backends())
	}
	return bk, nil
}
