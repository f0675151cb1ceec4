// Package online extends AA to a dynamic setting — the paper's third
// future-work item (§VIII): thread sets and utilities change over time
// ("in practice the utility functions of threads may change over time.
// Thus, we would like to integrate online performance measurements into
// our algorithms to produce dynamically optimal assignments").
//
// An event-driven simulator feeds a timeline of arrivals, departures,
// utility drifts (re-measurements) and server failure/recovery events to
// a rebalancing policy. Between events the system accrues total utility
// per unit time; every thread migration (server change for an
// already-placed thread) costs a fixed penalty, modelling cache-refill
// or VM move cost. Policies trade assignment quality against migration
// churn:
//
//   - FullResolve re-runs Algorithm 2 on every event (best utility, most
//     migrations),
//   - Incremental never migrates: it only re-allocates within the
//     affected server (zero churn, degrades over time),
//   - Hybrid is incremental but triggers a full re-solve when measured
//     quality drops below a threshold of the super-optimal bound.
package online

import (
	"context"
	"fmt"
	"slices"

	"aa/internal/check"
	"aa/internal/core"
	"aa/internal/engine"
	"aa/internal/utility"
)

// EventKind discriminates timeline events.
type EventKind int

// Event kinds.
const (
	Arrive  EventKind = iota // a new thread appears
	Depart                   // a thread leaves
	Drift                    // a thread's utility is re-measured
	Fail                     // a server goes down (Event.ID is a server index)
	Recover                  // a failed server comes back (Event.ID is a server index)
	// ArriveBatch admits many threads at one instant (Event.Batch holds
	// the per-thread ids and utilities; Event.ID is -1). It models a
	// fleet spin-up — the million-thread regime where admitting threads
	// one event at a time would drown the timeline in bookkeeping — and
	// triggers exactly one policy reaction for the whole cohort.
	ArriveBatch
)

// String names the kind for reports and errors.
func (k EventKind) String() string {
	switch k {
	case Arrive:
		return "arrive"
	case Depart:
		return "depart"
	case Drift:
		return "drift"
	case Fail:
		return "fail"
	case Recover:
		return "recover"
	case ArriveBatch:
		return "arrive-batch"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one timeline entry. Events must be sorted by Time. For Fail
// and Recover the ID is a server index; for ArriveBatch it is -1 and
// Batch carries the cohort; for the other kinds it is a thread identity.
type Event struct {
	Time float64
	Kind EventKind
	ID   int          // thread identity (server index for Fail/Recover, -1 for ArriveBatch)
	Util utility.Func // for Arrive and Drift
	// Batch is the ArriveBatch cohort, in ascending-id order.
	Batch []BatchArrival
}

// BatchArrival is one thread of an ArriveBatch cohort.
type BatchArrival struct {
	ID   int
	Util utility.Func
}

// Placement is one thread's current server and allocation.
type Placement struct {
	Server int
	Alloc  float64
}

// State is the live system: the active threads, their placements and
// the set of failed servers.
//
// The threads live in one id-ordered slot layout: ids is ascending and
// fs, pl and placed are parallel to it, so slot k is thread ids[k].
// Every whole-set pass (TotalUtility, Loads, Validate, the instance
// snapshot, a full re-solve's write-back) is one walk in slot order —
// ascending-id order, so every float sum has a fixed order and repeated
// evaluations are bit-identical. Lookups binary-search ids; inserts and
// removals shift the tails. Ids are arbitrary (recorded traces re-use
// and interleave them), never assumed to grow.
type State struct {
	M int
	C float64
	// Down marks failed servers; nil (the common case) means all up. A
	// thread placed on a down server is infeasible — policies must
	// evacuate on Fail.
	Down []bool

	ids    []int
	fs     []utility.Func
	pl     []Placement // zero until placed
	placed []bool

	// gone is the placement the thread of the current Depart event held
	// when the simulator removed its slot: the policy's reaction (the
	// incremental re-allocation of the server it left) needs it, and a
	// departed thread has no slot to keep it in.
	gone struct {
		id     int
		p      Placement
		placed bool
	}

	// scr holds the scratch a policy reuses across events — the instance
	// snapshot, the engine request/response of a full re-solve, the
	// workspace of Hybrid's bound and of every per-server reallocation,
	// the load sums and the member list — so a steady-state event loop
	// performs no per-event heap allocation (pinned by
	// TestReactSteadyStateAllocs). A State is single-goroutine, like the
	// simulation that owns it.
	scr struct {
		inst    core.Instance
		req     engine.Request
		resp    engine.Response
		ws      core.Workspace
		loads   []float64
		members []int // slots on the server being re-allocated
		up      []int // ascending indices of up servers
		upIdx   []int // real server index -> position in up, -1 when down
	}
}

// NewState returns an empty system of m servers with capacity c.
func NewState(m int, c float64) *State {
	return &State{M: m, C: c}
}

// Len returns the number of active threads.
func (s *State) Len() int { return len(s.ids) }

// IDs returns the active thread ids in ascending order. Funcs()[k] is
// thread IDs()[k]'s utility. Both slices are the state's own: read-only,
// valid until the next event is applied.
func (s *State) IDs() []int { return s.ids }

// Funcs returns the active threads' utilities, parallel to IDs.
func (s *State) Funcs() []utility.Func { return s.fs }

// Placement returns thread id's placement; ok is false when the thread
// is not active or not placed yet.
func (s *State) Placement(id int) (p Placement, ok bool) {
	if k, found := slices.BinarySearch(s.ids, id); found && s.placed[k] {
		return s.pl[k], true
	}
	return Placement{}, false
}

// SetPlacement places active thread id. Only active threads have
// placements, so placing an unknown id panics.
func (s *State) SetPlacement(id int, p Placement) {
	k, found := slices.BinarySearch(s.ids, id)
	if !found {
		panic(fmt.Sprintf("online: SetPlacement of inactive thread %d", id))
	}
	s.pl[k], s.placed[k] = p, true
}

// add inserts thread id, unplaced, reporting false if it is already
// active.
func (s *State) add(id int, f utility.Func) bool {
	k, found := slices.BinarySearch(s.ids, id)
	if found {
		return false
	}
	s.ids = slices.Insert(s.ids, k, id)
	s.fs = slices.Insert(s.fs, k, f)
	s.pl = slices.Insert(s.pl, k, Placement{})
	s.placed = slices.Insert(s.placed, k, false)
	return true
}

// depart removes thread id's slot, keeping its last placement in gone
// for the event's policy reaction. Departing an inactive id is a no-op.
func (s *State) depart(id int) {
	s.gone.placed = false
	k, found := slices.BinarySearch(s.ids, id)
	if !found {
		return
	}
	s.gone.id, s.gone.p, s.gone.placed = id, s.pl[k], s.placed[k]
	s.ids = slices.Delete(s.ids, k, k+1)
	s.fs = slices.Delete(s.fs, k, k+1) // zeroes the vacated tail: no stale reference
	s.pl = slices.Delete(s.pl, k, k+1)
	s.placed = slices.Delete(s.placed, k, k+1)
}

// departed returns the placement thread id held when the current event
// removed it; ok is false when this event departed no placed thread id.
func (s *State) departed(id int) (Placement, bool) {
	if s.gone.placed && s.gone.id == id {
		return s.gone.p, true
	}
	return Placement{}, false
}

// ServerUp reports whether server j is up.
func (s *State) ServerUp(j int) bool {
	return s.Down == nil || j >= len(s.Down) || !s.Down[j]
}

// SetServerDown marks server j failed (down=true) or recovered.
func (s *State) SetServerDown(j int, down bool) {
	if s.Down == nil {
		if !down {
			return
		}
		s.Down = make([]bool, s.M)
	}
	s.Down[j] = down
}

// UpCount returns the number of servers currently up.
func (s *State) UpCount() int {
	if s.Down == nil {
		return s.M
	}
	n := 0
	for j := 0; j < s.M; j++ {
		if s.ServerUp(j) {
			n++
		}
	}
	return n
}

// upServers returns the ascending indices of up servers plus the
// reverse map (real index → position in the up list, -1 when down).
// Both slices are scratch owned by the state, valid until the next
// upServers or instance call.
func (s *State) upServers() (up, upIdx []int) {
	s.scr.up = s.scr.up[:0]
	if cap(s.scr.upIdx) < s.M {
		s.scr.upIdx = make([]int, s.M)
	}
	s.scr.upIdx = s.scr.upIdx[:s.M]
	for j := 0; j < s.M; j++ {
		if s.ServerUp(j) {
			s.scr.upIdx[j] = len(s.scr.up)
			s.scr.up = append(s.scr.up, j)
		} else {
			s.scr.upIdx[j] = -1
		}
	}
	return s.scr.up, s.scr.upIdx
}

// TotalUtility returns the instantaneous utility rate Σ f_i(alloc_i),
// an unplaced thread counting at allocation 0. The sum runs in slot
// (ascending-id) order so that repeated evaluations of the same state
// are bit-identical — the property the replay harness's determinism
// gate relies on (float addition is not associative).
func (s *State) TotalUtility() float64 {
	total := 0.0
	for k, f := range s.fs {
		total += f.Value(s.pl[k].Alloc)
	}
	return total
}

// sumLoads returns the per-server allocation sums in state scratch,
// valid until the next call. Placements are summed in slot (ascending-id)
// order: policies choose servers by comparing these sums, so any other
// accumulation order would leak ULP-level nondeterminism into placement
// decisions.
func (s *State) sumLoads() []float64 {
	if cap(s.scr.loads) < s.M {
		s.scr.loads = make([]float64, s.M)
	}
	loads := s.scr.loads[:s.M]
	clear(loads)
	for k, p := range s.pl {
		if s.placed[k] {
			loads[p.Server] += p.Alloc
		}
	}
	s.scr.loads = loads
	return loads
}

// Validate checks the state's placements are feasible: every thread
// placed on a valid, up server with a non-negative allocation, and no
// server past its capacity. (A departed thread's slot is gone, so a
// stale placement cannot exist.)
func (s *State) Validate(tol float64) error {
	for k, id := range s.ids {
		p := s.pl[k]
		if !s.placed[k] {
			return fmt.Errorf("online: thread %d unplaced", id)
		}
		if p.Server < 0 || p.Server >= s.M {
			return fmt.Errorf("online: thread %d on invalid server %d", id, p.Server)
		}
		if !s.ServerUp(p.Server) {
			return fmt.Errorf("online: thread %d placed on failed server %d", id, p.Server)
		}
		if p.Alloc < -tol {
			return fmt.Errorf("online: thread %d negative allocation", id)
		}
	}
	for j, load := range s.sumLoads() {
		if load > s.C+tol*(1+s.C) {
			return fmt.Errorf("online: server %d overloaded: %v > %v", j, load, s.C)
		}
	}
	return nil
}

// Check runs the cap-aware feasibility invariants of internal/check on
// the live state — the -check hook of aaonline. Unlike Validate it also
// enforces each thread's own utility cap (not just server capacity) and
// counts the outcome into the aa_check_* metrics.
func (s *State) Check(eps float64) error {
	in, _, upIdx := s.instance()
	if in.N() == 0 {
		return nil
	}
	a := core.NewAssignment(in.N())
	for k, id := range s.ids {
		p := s.pl[k]
		if !s.placed[k] {
			return fmt.Errorf("%w: thread %d unplaced", check.ErrInfeasible, id)
		}
		if p.Server < 0 || p.Server >= s.M || upIdx[p.Server] < 0 {
			return fmt.Errorf("%w: thread %d placed on failed or invalid server %d",
				check.ErrInfeasible, id, p.Server)
		}
		a.Server[k] = upIdx[p.Server]
		a.Alloc[k] = p.Alloc
	}
	return check.Feasible(in, a, eps)
}

// instance builds a core.Instance snapshot over the UP servers only,
// plus the up-server list and its reverse map: the instance's server
// index j stands for real server up[j], and its thread k is slot k.
// With no failed servers the mapping is the identity. The instance's
// Threads is the state's own func slice; all three return values are
// valid until the next instance call or event.
func (s *State) instance() (in *core.Instance, up, upIdx []int) {
	up, upIdx = s.upServers()
	s.scr.inst = core.Instance{M: len(up), C: s.C, Threads: s.fs}
	return &s.scr.inst, up, upIdx
}

// reallocServer re-optimizes allocations within one server, leaving the
// thread→server map untouched. It finds the server's members with one
// scan of the slots and splits the server among them in slot order
// through the workspace's per-server split (core.Workspace.SplitGroup),
// whose scratch makes a steady-state realloc allocation-free.
func (s *State) reallocServer(j int) {
	scr := &s.scr
	scr.members = scr.members[:0]
	for k, p := range s.pl {
		if s.placed[k] && p.Server == j {
			scr.members = append(scr.members, k)
		}
	}
	if len(scr.members) == 0 {
		return
	}
	res := scr.ws.SplitGroup(s.fs, scr.members, s.C, s.C, core.SplitConcave, nil)
	for i, k := range scr.members {
		s.pl[k].Alloc = res.Alloc[i]
	}
}

// Policy reacts to an applied event by updating placements. Applying the
// event (adding, removing or re-measuring threads) is the simulator's
// job; the policy only repairs placements. It returns the set of
// migrated thread ids (server changes of threads that existed before
// the event).
type Policy interface {
	Name() string
	React(s *State, ev Event) (migrated []int)
}

// FullResolve re-runs Algorithm 2 on the active set after every event.
// Engine, when non-nil, names the pipeline the re-solves ride (the
// replay harness injects an engine with latency-counting middleware);
// nil uses the process-wide default.
type FullResolve struct {
	Engine *engine.Engine
}

// Name implements Policy.
func (FullResolve) Name() string { return "full-resolve" }

func (f FullResolve) engine() *engine.Engine {
	if f.Engine != nil {
		return f.Engine
	}
	return engine.Default()
}

// React implements Policy. The re-solve rides the engine pipeline
// (pooled workspace, telemetry, process-wide checks) through the
// state's reusable request/response, so a stable steady state re-solves
// without allocating. The instance is built over the up servers only,
// so failures and recoveries are handled by construction — the solver
// never sees a down server and evacuated threads land wherever
// Algorithm 2 puts them. In the near-impossible event the engine
// rejects the solve (a post-solve check violation), placements are left
// untouched and the simulator's own post-event validation reports it.
func (f FullResolve) React(s *State, ev Event) []int {
	in, up, _ := s.instance()
	if in.N() == 0 || len(up) == 0 {
		return nil
	}
	s.scr.req = engine.Request{Instance: in}
	if err := f.engine().SolveInto(context.Background(), &s.scr.req, &s.scr.resp); err != nil {
		return nil
	}
	a := &s.scr.resp.Assignment
	var migrated []int
	for k, id := range s.ids {
		next := Placement{Server: up[a.Server[k]], Alloc: a.Alloc[k]}
		// The event's own thread does not count as a migration; for
		// Fail/Recover the ID is a server, so every move counts.
		self := id == ev.ID && ev.Kind != Fail && ev.Kind != Recover
		if s.placed[k] && !self && s.pl[k].Server != next.Server {
			migrated = append(migrated, id)
		}
		s.pl[k], s.placed[k] = next, true
	}
	return migrated
}

// Incremental only migrates existing threads when a failure forces it:
// arrivals go to the least-loaded up server, departures and drifts
// re-allocate within the affected server, and a server failure
// evacuates its threads to the least-loaded survivors (the only
// migrations this policy ever performs).
type Incremental struct{}

// Name implements Policy.
func (Incremental) Name() string { return "incremental" }

// loadTieTol is the relative tolerance within which leastLoadedUp
// treats two loads as equal: full servers' loads differ only by
// allocation round-off (~1e-12·C), and a placement must not hinge on it.
const loadTieTol = 1e-9

// leastLoadedUp returns the lowest-id up server whose load in loads is
// within loadTieTol·(1+C) of the smallest, or -1 when every server is
// down.
func (s *State) leastLoadedUp(loads []float64) int {
	best := -1
	for j := 0; j < s.M; j++ {
		if s.ServerUp(j) && (best < 0 || loads[j] < loads[best]) {
			best = j
		}
	}
	if best < 0 {
		return -1
	}
	limit := loads[best] + loadTieTol*(1+s.C)
	for j := 0; j < best; j++ {
		if s.ServerUp(j) && loads[j] <= limit {
			return j
		}
	}
	return best
}

// React implements Policy.
func (Incremental) React(s *State, ev Event) []int {
	switch ev.Kind {
	case Arrive:
		best := s.leastLoadedUp(s.sumLoads())
		if best < 0 {
			return nil // no server up; Validate reports the unplaced thread
		}
		s.SetPlacement(ev.ID, Placement{Server: best, Alloc: 0})
		s.reallocServer(best)
	case Depart:
		if p, ok := s.departed(ev.ID); ok {
			s.reallocServer(p.Server)
		}
	case Drift:
		if p, ok := s.Placement(ev.ID); ok {
			s.reallocServer(p.Server)
		}
	case Fail:
		return s.evacuate(ev.ID)
	case Recover:
		// Nothing to rebalance: the recovered server starts empty and
		// fills from future arrivals.
	case ArriveBatch:
		s.placeBatch(ev.Batch)
	}
	return nil
}

// placeBatch spreads a cohort of new threads over the up servers:
// each thread (in batch order) lands on the currently least-loaded
// server, charged at its capped demand as the load estimate, then every
// touched server re-allocates once. Placing at alloc 0 without the
// estimate would stack the whole cohort on one server — the estimate is
// what makes a million-thread spin-up come out balanced.
func (s *State) placeBatch(batch []BatchArrival) {
	loads := s.sumLoads()
	touched := make([]bool, s.M)
	for _, ba := range batch {
		best := s.leastLoadedUp(loads)
		if best < 0 {
			return // no server up; Validate reports the unplaced threads
		}
		s.SetPlacement(ba.ID, Placement{Server: best, Alloc: 0})
		loads[best] += min(ba.Util.Cap(), s.C)
		touched[best] = true
	}
	for j, t := range touched {
		if t {
			s.reallocServer(j)
		}
	}
}

// evacuate moves every thread off the failed server j onto the
// least-loaded surviving servers (balancing by each thread's previous
// allocation as the load estimate), then re-allocates each touched
// server. The moved ids are the forced migrations.
func (s *State) evacuate(j int) []int {
	loads := s.sumLoads()
	if s.leastLoadedUp(loads) < 0 {
		// Nowhere to go: leave the placements for Validate to flag.
		return nil
	}
	var moved []int
	touched := make([]bool, s.M)
	for k, p := range s.pl {
		if !s.placed[k] || p.Server != j {
			continue
		}
		best := s.leastLoadedUp(loads)
		s.pl[k] = Placement{Server: best, Alloc: 0}
		loads[best] += p.Alloc
		touched[best] = true
		moved = append(moved, s.ids[k])
	}
	for t, ok := range touched {
		if ok {
			s.reallocServer(t)
		}
	}
	return moved
}

// Hybrid runs Incremental, then falls back to a full re-solve whenever
// the incremental state's utility drops below Threshold times the
// super-optimal bound of the active set (the paper's α ≈ 0.828 is the
// natural setting: rebuild when the incremental state is worse than the
// approximation guarantee). Engine, when non-nil, is the pipeline the
// fallback re-solves ride.
type Hybrid struct {
	Threshold float64
	Engine    *engine.Engine
}

// Name implements Policy.
func (h Hybrid) Name() string { return fmt.Sprintf("hybrid(%.2f)", h.Threshold) }

// React implements Policy. The bound is computed in the state's
// super-optimal workspace, so a steady-state reaction allocates nothing.
func (h Hybrid) React(s *State, ev Event) []int {
	migrated := (Incremental{}).React(s, ev)
	in, up, _ := s.instance()
	if in.N() == 0 || len(up) == 0 {
		return migrated
	}
	bound := s.scr.ws.SuperOptimal(in).Total
	if bound <= 0 || s.TotalUtility() >= h.Threshold*bound {
		return migrated
	}
	return append(migrated, (FullResolve{Engine: h.Engine}).React(s, ev)...)
}

// Result summarizes a simulation.
type Result struct {
	UtilityIntegral float64 // ∫ total utility dt over the horizon
	Migrations      int     // thread moves caused by the policy
	FinalThreads    int
}

// EventInfo is the per-event observation delivered to an Options.Hook:
// which timeline entry was just applied, how many threads the policy
// migrated, and the post-event utility rate s.TotalUtility(). Every
// field is deterministic; the replay harness times solves in its own
// engine middleware, not through the hook.
type EventInfo struct {
	Index    int
	Event    Event
	Migrated int
	Utility  float64
}

// Options parameterize SimulateOpts. The zero value observes nothing.
type Options struct {
	Horizon float64
	// Hook, when non-nil, is called after each applied event, its
	// policy reaction and the post-event validation. The hook may read
	// the state (IDs, Funcs, Placement, Down; EventInfo.Utility is its
	// TotalUtility) but must not mutate it.
	Hook func(info EventInfo, s *State)
}

// Simulate plays the event timeline (sorted by Time) under the policy,
// accruing utility between events and counting migrations; a caller
// that prices a migration subtracts cost × Migrations itself. horizon
// is the end time; events at or after it are ignored.
func Simulate(m int, c float64, events []Event, policy Policy, horizon float64) (Result, error) {
	return SimulateOpts(m, c, events, policy, Options{Horizon: horizon})
}

// SimulateOpts is Simulate with an observation hook — the entry point
// of the trace-replay harness (internal/replay), which needs per-event
// access to the live state for utility-vs-bound accounting and solve
// latency measurement.
func SimulateOpts(m int, c float64, events []Event, policy Policy, opts Options) (Result, error) {
	s := NewState(m, c)
	var res Result
	// rate is s.TotalUtility() as of the last applied event, evaluated
	// once per event: between events the state does not change.
	now, rate := 0.0, s.TotalUtility()
	for i, ev := range events {
		if ev.Time >= opts.Horizon {
			break
		}
		if ev.Time < now {
			return Result{}, fmt.Errorf("online: events out of order at t=%v", ev.Time)
		}
		res.UtilityIntegral += rate * (ev.Time - now)
		now = ev.Time

		switch ev.Kind {
		case Arrive:
			if ev.Util == nil {
				return Result{}, fmt.Errorf("online: arrival %d without utility", ev.ID)
			}
			if !s.add(ev.ID, ev.Util) {
				return Result{}, fmt.Errorf("online: duplicate arrival %d", ev.ID)
			}
		case Depart:
			s.depart(ev.ID)
		case Drift:
			k, exists := slices.BinarySearch(s.ids, ev.ID)
			if !exists {
				continue // drift for a departed thread: ignore
			}
			if ev.Util == nil {
				return Result{}, fmt.Errorf("online: drift %d without utility", ev.ID)
			}
			s.fs[k] = ev.Util
		case Fail:
			if ev.ID < 0 || ev.ID >= s.M {
				return Result{}, fmt.Errorf("online: fail of invalid server %d", ev.ID)
			}
			if !s.ServerUp(ev.ID) {
				return Result{}, fmt.Errorf("online: server %d failed while already down", ev.ID)
			}
			s.SetServerDown(ev.ID, true)
		case Recover:
			if ev.ID < 0 || ev.ID >= s.M {
				return Result{}, fmt.Errorf("online: recovery of invalid server %d", ev.ID)
			}
			if s.ServerUp(ev.ID) {
				return Result{}, fmt.Errorf("online: server %d recovered while up", ev.ID)
			}
			s.SetServerDown(ev.ID, false)
		case ArriveBatch:
			if len(ev.Batch) == 0 {
				return Result{}, fmt.Errorf("online: empty arrival batch at t=%v", ev.Time)
			}
			for _, ba := range ev.Batch {
				if ba.Util == nil {
					return Result{}, fmt.Errorf("online: batch arrival %d without utility", ba.ID)
				}
				if !s.add(ba.ID, ba.Util) {
					return Result{}, fmt.Errorf("online: duplicate arrival %d", ba.ID)
				}
			}
		default:
			return Result{}, fmt.Errorf("online: unknown event kind %v", ev.Kind)
		}
		migrated := policy.React(s, ev)
		res.Migrations += len(migrated)
		if err := s.Validate(1e-6); err != nil {
			return Result{}, fmt.Errorf("online: after t=%v: %w", ev.Time, err)
		}
		if check.Enabled() {
			if err := s.Check(check.DefaultEps); err != nil {
				return Result{}, fmt.Errorf("online: after t=%v: %w", ev.Time, err)
			}
		}
		rate = s.TotalUtility()
		if opts.Hook != nil {
			opts.Hook(EventInfo{Index: i, Event: ev, Migrated: len(migrated), Utility: rate}, s)
		}
	}
	res.UtilityIntegral += rate * (opts.Horizon - now)
	res.FinalThreads = s.Len()
	return res, nil
}
