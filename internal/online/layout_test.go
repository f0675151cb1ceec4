package online

// Differential test of the id-ordered slot layout: seeded random
// timelines play through SimulateOpts and through refState, a map-based
// model of the state as it was kept before the slot layout (threads and
// placements in maps, every whole-set pass collecting and sorting the
// ids). After every event the two must agree bit for bit.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"aa/internal/alloc"
	"aa/internal/core"
	"aa/internal/engine"
	"aa/internal/rng"
	"aa/internal/utility"
)

// refState is the map-based reference model.
type refState struct {
	m       int
	c       float64
	threads map[int]utility.Func
	place   map[int]Placement
	down    []bool
	allocSc alloc.Scratch
}

func newRefState(m int, c float64) *refState {
	return &refState{m: m, c: c, threads: map[int]utility.Func{}, place: map[int]Placement{}, down: make([]bool, m)}
}

func sortedKeys[V any](mp map[int]V) []int {
	ids := make([]int, 0, len(mp))
	for id := range mp {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

func (s *refState) serverUp(j int) bool { return !s.down[j] }

func (s *refState) totalUtility() float64 {
	total := 0.0
	for _, id := range sortedKeys(s.threads) {
		total += s.threads[id].Value(s.place[id].Alloc)
	}
	return total
}

func (s *refState) loads() []float64 {
	loads := make([]float64, s.m)
	for _, id := range sortedKeys(s.place) {
		p := s.place[id]
		loads[p.Server] += p.Alloc
	}
	return loads
}

func (s *refState) validate(tol float64) error {
	for _, id := range sortedKeys(s.threads) {
		p, ok := s.place[id]
		if !ok {
			return fmt.Errorf("online: thread %d unplaced", id)
		}
		if p.Server < 0 || p.Server >= s.m {
			return fmt.Errorf("online: thread %d on invalid server %d", id, p.Server)
		}
		if !s.serverUp(p.Server) {
			return fmt.Errorf("online: thread %d placed on failed server %d", id, p.Server)
		}
		if p.Alloc < -tol {
			return fmt.Errorf("online: thread %d negative allocation", id)
		}
	}
	for _, id := range sortedKeys(s.place) {
		if _, ok := s.threads[id]; !ok {
			return fmt.Errorf("online: stale placement for departed thread %d", id)
		}
	}
	for j, load := range s.loads() {
		if load > s.c+tol*(1+s.c) {
			return fmt.Errorf("online: server %d overloaded: %v > %v", j, load, s.c)
		}
	}
	return nil
}

func (s *refState) instance() (in *core.Instance, ids, up []int) {
	ids = sortedKeys(s.threads)
	for j := 0; j < s.m; j++ {
		if s.serverUp(j) {
			up = append(up, j)
		}
	}
	fs := make([]utility.Func, len(ids))
	for k, id := range ids {
		fs[k] = s.threads[id]
	}
	return &core.Instance{M: len(up), C: s.c, Threads: fs}, ids, up
}

func (s *refState) reallocServer(j int) {
	var members []int
	for _, id := range sortedKeys(s.threads) {
		if s.place[id].Server == j {
			members = append(members, id)
		}
	}
	if len(members) == 0 {
		return
	}
	fs := make([]utility.Func, len(members))
	for k, id := range members {
		f := s.threads[id]
		fs[k] = utility.Capped{F: f, C: min(f.Cap(), s.c)}
	}
	res := alloc.ConcaveWith(&s.allocSc, nil, fs, s.c)
	for k, id := range members {
		s.place[id] = Placement{Server: j, Alloc: res.Alloc[k]}
	}
}

// leastLoadedUp is the lowest-id up server among those whose load is
// within loadTieTol·(1+c) of the smallest.
func (s *refState) leastLoadedUp(loads []float64) int {
	minLoad := math.Inf(1)
	for j := 0; j < s.m; j++ {
		if s.serverUp(j) {
			minLoad = math.Min(minLoad, loads[j])
		}
	}
	for j := 0; j < s.m; j++ {
		if s.serverUp(j) && loads[j] <= minLoad+loadTieTol*(1+s.c) {
			return j
		}
	}
	return -1
}

func (s *refState) fullResolve(ev Event) []int {
	for id := range s.place {
		if _, ok := s.threads[id]; !ok {
			delete(s.place, id)
		}
	}
	in, ids, up := s.instance()
	if len(ids) == 0 || len(up) == 0 {
		return nil
	}
	req := engine.Request{Instance: in}
	var resp engine.Response
	if err := engine.Default().SolveInto(context.Background(), &req, &resp); err != nil {
		return nil
	}
	var migrated []int
	for k, id := range ids {
		old, existed := s.place[id]
		next := Placement{Server: up[resp.Assignment.Server[k]], Alloc: resp.Assignment.Alloc[k]}
		self := id == ev.ID && ev.Kind != Fail && ev.Kind != Recover
		if existed && !self && old.Server != next.Server {
			migrated = append(migrated, id)
		}
		s.place[id] = next
	}
	return migrated
}

func (s *refState) incremental(ev Event) []int {
	switch ev.Kind {
	case Arrive:
		best := s.leastLoadedUp(s.loads())
		if best < 0 {
			return nil
		}
		s.place[ev.ID] = Placement{Server: best}
		s.reallocServer(best)
	case Depart:
		if p, ok := s.place[ev.ID]; ok {
			delete(s.place, ev.ID)
			s.reallocServer(p.Server)
		}
	case Drift:
		if p, ok := s.place[ev.ID]; ok {
			s.reallocServer(p.Server)
		}
	case Fail:
		return s.evacuate(ev.ID)
	case ArriveBatch:
		loads := s.loads()
		touched := map[int]bool{}
		for _, ba := range ev.Batch {
			best := s.leastLoadedUp(loads)
			if best < 0 {
				return nil
			}
			s.place[ba.ID] = Placement{Server: best}
			loads[best] += min(ba.Util.Cap(), s.c)
			touched[best] = true
		}
		for _, j := range sortedKeys(touched) {
			s.reallocServer(j)
		}
	}
	return nil
}

func (s *refState) evacuate(j int) []int {
	var moved []int
	for _, id := range sortedKeys(s.threads) {
		if s.place[id].Server == j {
			moved = append(moved, id)
		}
	}
	if len(moved) == 0 {
		return nil
	}
	loads := s.loads()
	touched := map[int]bool{}
	for _, id := range moved {
		prev := s.place[id].Alloc
		best := s.leastLoadedUp(loads)
		if best < 0 {
			return nil
		}
		s.place[id] = Placement{Server: best}
		loads[best] += prev
		touched[best] = true
	}
	for _, t := range sortedKeys(touched) {
		s.reallocServer(t)
	}
	return moved
}

func (s *refState) hybrid(threshold float64, ev Event) []int {
	migrated := s.incremental(ev)
	in, _, up := s.instance()
	if in.N() == 0 || len(up) == 0 {
		return migrated
	}
	bound := core.SuperOptimal(in).Total
	if bound <= 0 || s.totalUtility() >= threshold*bound {
		return migrated
	}
	return append(migrated, s.fullResolve(ev)...)
}

// step is one post-event observation, recorded identically on both
// sides.
type step struct {
	index    int
	gone     bool // a Depart event's thread was placed when it left
	total    float64
	loads    []float64
	ids      []int
	place    []Placement
	migrated []int
}

// refSimulate is SimulateOpts over the reference model.
func refSimulate(m int, c float64, events []Event, react func(*refState, Event) []int, horizon float64) ([]step, Result, error) {
	s := newRefState(m, c)
	var steps []step
	var res Result
	now := 0.0
	for i, ev := range events {
		if ev.Time >= horizon {
			break
		}
		res.UtilityIntegral += s.totalUtility() * (ev.Time - now)
		now = ev.Time
		gone := false
		switch ev.Kind {
		case Arrive:
			if ev.Util == nil {
				return nil, Result{}, fmt.Errorf("online: arrival %d without utility", ev.ID)
			}
			if _, exists := s.threads[ev.ID]; exists {
				return nil, Result{}, fmt.Errorf("online: duplicate arrival %d", ev.ID)
			}
			s.threads[ev.ID] = ev.Util
		case Depart:
			_, gone = s.place[ev.ID]
			delete(s.threads, ev.ID)
		case Drift:
			if _, exists := s.threads[ev.ID]; !exists {
				continue
			}
			if ev.Util == nil {
				return nil, Result{}, fmt.Errorf("online: drift %d without utility", ev.ID)
			}
			s.threads[ev.ID] = ev.Util
		case Fail:
			s.down[ev.ID] = true
		case Recover:
			s.down[ev.ID] = false
		case ArriveBatch:
			for _, ba := range ev.Batch {
				if ba.Util == nil {
					return nil, Result{}, fmt.Errorf("online: batch arrival %d without utility", ba.ID)
				}
				if _, exists := s.threads[ba.ID]; exists {
					return nil, Result{}, fmt.Errorf("online: duplicate arrival %d", ba.ID)
				}
				s.threads[ba.ID] = ba.Util
			}
		}
		migrated := react(s, ev)
		res.Migrations += len(migrated)
		if err := s.validate(1e-6); err != nil {
			return nil, Result{}, fmt.Errorf("online: after t=%v: %w", ev.Time, err)
		}
		st := step{index: i, gone: gone, total: s.totalUtility(), loads: s.loads(), ids: sortedKeys(s.threads), migrated: migrated}
		for _, id := range st.ids {
			st.place = append(st.place, s.place[id])
		}
		steps = append(steps, st)
	}
	res.UtilityIntegral += s.totalUtility() * (horizon - now)
	res.FinalThreads = len(s.threads)
	return steps, res, nil
}

// recordingPolicy keeps the migration list of the latest reaction and
// whether a Depart reaction saw its thread's last placement.
type recordingPolicy struct {
	inner Policy
	last  []int
	gone  bool
}

func (p *recordingPolicy) Name() string { return p.inner.Name() }

func (p *recordingPolicy) React(s *State, ev Event) []int {
	_, p.gone = s.departed(ev.ID)
	p.gone = p.gone && ev.Kind == Depart
	p.last = p.inner.React(s, ev)
	return p.last
}

// diffPolicies pairs each policy with its reference reaction.
func diffPolicies() []struct {
	policy Policy
	ref    func(*refState, Event) []int
} {
	const thr = 0.83
	return []struct {
		policy Policy
		ref    func(*refState, Event) []int
	}{
		{FullResolve{}, (*refState).fullResolve},
		{Incremental{}, (*refState).incremental},
		{Hybrid{Threshold: thr}, func(s *refState, ev Event) []int { return s.hybrid(thr, ev) }},
	}
}

// simulateSteps runs SimulateOpts, recording a step after every event
// and checking that a departure leaves no placement behind.
func simulateSteps(t *testing.T, m int, c float64, events []Event, p Policy, horizon float64) ([]step, Result, error) {
	t.Helper()
	rec := &recordingPolicy{inner: p}
	var steps []step
	hook := func(info EventInfo, s *State) {
		if info.Event.Kind == Depart {
			if pl, ok := s.Placement(info.Event.ID); ok {
				t.Errorf("event %d: departed thread %d still placed at %+v", info.Index, info.Event.ID, pl)
			}
			if _, found := slices.BinarySearch(s.IDs(), info.Event.ID); found {
				t.Errorf("event %d: departed thread %d still active", info.Index, info.Event.ID)
			}
		}
		st := step{index: info.Index, gone: rec.gone, total: s.TotalUtility(), loads: s.Loads(),
			ids: append([]int(nil), s.IDs()...), migrated: rec.last}
		for _, id := range st.ids {
			pl, ok := s.Placement(id)
			if !ok {
				t.Errorf("event %d: thread %d unplaced after validation", info.Index, id)
			}
			st.place = append(st.place, pl)
		}
		steps = append(steps, st)
	}
	res, err := SimulateOpts(m, c, events, rec, Options{Horizon: horizon, Hook: hook})
	return steps, res, err
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// compareRuns fails on the first step where the slot layout and the
// reference disagree, and on any difference in the result or error.
func compareRuns(t *testing.T, label string, m int, c float64, events []Event, p Policy, ref func(*refState, Event) []int) {
	t.Helper()
	const horizon = 1e9
	got, gotRes, gotErr := simulateSteps(t, m, c, events, p, horizon)
	want, wantRes, wantErr := refSimulate(m, c, events, ref, horizon)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d observed events, reference %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		switch {
		case g.index != w.index:
			t.Fatalf("%s: step %d is event %d, reference %d", label, i, g.index, w.index)
		case g.gone != w.gone:
			t.Fatalf("%s: event %d: departed placement seen %v, reference %v", label, g.index, g.gone, w.gone)
		case math.Float64bits(g.total) != math.Float64bits(w.total):
			t.Fatalf("%s: event %d: TotalUtility %v, reference %v", label, g.index, g.total, w.total)
		case !sameBits(g.loads, w.loads):
			t.Fatalf("%s: event %d: Loads %v, reference %v", label, g.index, g.loads, w.loads)
		case !slices.Equal(g.ids, w.ids):
			t.Fatalf("%s: event %d: ids %v, reference %v", label, g.index, g.ids, w.ids)
		case !slices.Equal(g.place, w.place):
			t.Fatalf("%s: event %d: placements %v, reference %v", label, g.index, g.place, w.place)
		case !slices.Equal(g.migrated, w.migrated):
			t.Fatalf("%s: event %d (%v): migrated %v, reference %v", label, g.index, events[g.index].Kind, g.migrated, w.migrated)
		}
	}
	if gotRes != wantRes {
		t.Fatalf("%s: result %+v, reference %+v", label, gotRes, wantRes)
	}
}

// diffTimeline draws a churny timeline over sparse ids that ascend,
// descend or scatter (by mode), re-using departed ids, with ArriveBatch
// cohorts interleaving the live ids (in ascending or scrambled order),
// drifts and repeated departures of departed ids, departures of unknown
// ids, and Fail/Recover
// episodes that always leave one server up.
func diffTimeline(r *rng.Rand, m int, c float64, events, mode int) []Event {
	var out []Event
	live := map[int]bool{}
	var liveIDs, departed []int
	down := make([]bool, m)
	nDown := 0
	next := 0
	fresh := func() int {
		for {
			var id int
			switch mode {
			case 0:
				next += 1 + r.Intn(7)
				id = next
			case 1:
				next -= 1 + r.Intn(7)
				id = next
			default:
				id = r.Intn(400) - 200
			}
			if !live[id] {
				return id
			}
		}
	}
	arrive := func(id int) {
		live[id] = true
		liveIDs = append(liveIDs, id)
	}
	pickLive := func() (int, int) {
		k := r.Intn(len(liveIDs))
		return k, liveIDs[k]
	}
	tm := 0.0
	for len(out) < events {
		tm += r.Uniform(0.1, 1)
		x := r.Float64()
		switch {
		case len(liveIDs) == 0 || x < 0.25:
			id := fresh()
			if len(departed) > 0 && r.Float64() < 0.35 {
				if d := departed[r.Intn(len(departed))]; !live[d] {
					id = d
				}
			}
			arrive(id)
			out = append(out, Event{Time: tm, Kind: Arrive, ID: id, Util: randomUtility(r, c)})
		case x < 0.37:
			// A cohort whose ids land between the live ones.
			lo, hi := -50, 50
			for _, id := range liveIDs {
				lo, hi = min(lo, id-5), max(hi, id+5)
			}
			var batch []BatchArrival
			for size := 1 + r.Intn(10); len(batch) < size; {
				id := lo + r.Intn(hi-lo+1)
				if live[id] {
					continue
				}
				arrive(id)
				batch = append(batch, BatchArrival{ID: id, Util: randomUtility(r, c)})
			}
			if r.Float64() < 0.6 {
				sort.Slice(batch, func(i, j int) bool { return batch[i].ID < batch[j].ID })
			}
			out = append(out, Event{Time: tm, Kind: ArriveBatch, ID: -1, Batch: batch})
		case x < 0.55:
			k, id := pickLive()
			delete(live, id)
			liveIDs = append(liveIDs[:k], liveIDs[k+1:]...)
			departed = append(departed, id)
			out = append(out, Event{Time: tm, Kind: Depart, ID: id})
		case x < 0.72:
			_, id := pickLive()
			out = append(out, Event{Time: tm, Kind: Drift, ID: id, Util: randomUtility(r, c)})
		case x < 0.78 && len(departed) > 0:
			id := departed[r.Intn(len(departed))]
			if !live[id] {
				out = append(out, Event{Time: tm, Kind: Drift, ID: id, Util: randomUtility(r, c)})
			}
		case x < 0.86 && nDown < m-1:
			j := r.Intn(m)
			if !down[j] {
				down[j] = true
				nDown++
				out = append(out, Event{Time: tm, Kind: Fail, ID: j})
			}
		case x < 0.95 && nDown > 0:
			j := r.Intn(m)
			if down[j] {
				down[j] = false
				nDown--
				out = append(out, Event{Time: tm, Kind: Recover, ID: j})
			}
		case len(departed) > 0 && r.Float64() < 0.5:
			if id := departed[r.Intn(len(departed))]; !live[id] {
				out = append(out, Event{Time: tm, Kind: Depart, ID: id})
			}
		default:
			out = append(out, Event{Time: tm, Kind: Depart, ID: 10000 + r.Intn(10)})
		}
	}
	return out
}

func TestSlotLayoutMatchesMapReference(t *testing.T) {
	const m, c = 4, 100.0
	base := rng.New(31)
	for trial := 0; trial < 9; trial++ {
		events := diffTimeline(base.Split(uint64(trial)), m, c, 50, trial%3)
		for _, pc := range diffPolicies() {
			compareRuns(t, fmt.Sprintf("trial %d %s", trial, pc.policy.Name()), m, c, events, pc.policy, pc.ref)
		}
	}
}

// TestSlotLayoutErrorsMatchReference: duplicate arrivals (single, and
// in ascending and scrambled cohorts), missing utilities and the
// all-servers-down Validate failure are reported exactly as the
// reference reports them.
func TestSlotLayoutErrorsMatchReference(t *testing.T) {
	u := utility.Linear{Slope: 1, C: 40}
	at := func(tm float64, kind EventKind, id int) Event {
		return Event{Time: tm, Kind: kind, ID: id, Util: u}
	}
	batch := func(tm float64, ids ...int) Event {
		ev := Event{Time: tm, Kind: ArriveBatch, ID: -1}
		for _, id := range ids {
			ev.Batch = append(ev.Batch, BatchArrival{ID: id, Util: u})
		}
		return ev
	}
	nilMember := batch(3, 8, 1, 6)
	nilMember.Batch[1].Util = nil
	for name, events := range map[string][]Event{
		"duplicate arrival":            {at(1, Arrive, 4), at(2, Arrive, 4)},
		"ascending cohort hits live":   {at(1, Arrive, 4), batch(2, 1, 4, 9)},
		"scrambled cohort self dup":    {at(1, Arrive, 4), batch(2, 6, 2, 9, 2)},
		"dup after an out-of-order id": {at(1, Arrive, 4), batch(2, 2, 9, 5, 9)},
		"nil member before dup":        {at(1, Arrive, 1), nilMember},
		"arrival without utility":      {{Time: 1, Kind: Arrive, ID: 3}},
		"drift without utility":        {at(1, Arrive, 3), {Time: 2, Kind: Drift, ID: 3}},
		"all servers down":             {at(1, Arrive, 3), at(2, Fail, 0), at(3, Fail, 1), at(4, Arrive, 5)},
		"cohort with servers down":     {at(1, Fail, 0), at(2, Fail, 1), batch(3, 5, 2, 7)},
	} {
		for _, pc := range diffPolicies() {
			label := name + " " + pc.policy.Name()
			_, _, err := simulateSteps(t, 2, 100, events, pc.policy, 1e9)
			if err == nil {
				t.Errorf("%s: no error", label)
			}
			compareRuns(t, label, 2, 100, events, pc.policy, pc.ref)
		}
	}
}

// TestValidateMatchesReference corrupts one placement at a time and
// checks Validate names the same fault as the reference.
func TestValidateMatchesReference(t *testing.T) {
	r := rng.New(32)
	fs := map[int]utility.Func{}
	for _, id := range []int{-7, 2, 3, 11, 40} {
		fs[id] = randomUtility(r, 100)
	}
	ok := map[int]Placement{-7: {0, 10}, 2: {1, 20}, 3: {2, 30}, 11: {0, 5}, 40: {1, 1}}
	for name, tc := range map[string]struct {
		id    int
		p     Placement
		unset bool
		down  int
	}{
		"valid":           {id: 3, p: Placement{2, 30}, down: -1},
		"unplaced":        {id: 11, unset: true, down: -1},
		"invalid server":  {id: 2, p: Placement{5, 1}, down: -1},
		"negative server": {id: 40, p: Placement{-1, 1}, down: -1},
		"failed server":   {id: 3, p: Placement{2, 30}, down: 2},
		"negative alloc":  {id: -7, p: Placement{0, -1}, down: -1},
		"overload":        {id: 40, p: Placement{1, 95}, down: -1},
	} {
		s, ref := NewState(3, 100), newRefState(3, 100)
		for _, id := range sortedKeys(fs) {
			s.add(id, fs[id])
			ref.threads[id] = fs[id]
			p := ok[id]
			if id == tc.id {
				if tc.unset {
					continue
				}
				p = tc.p
			}
			s.SetPlacement(id, p)
			ref.place[id] = p
		}
		if tc.down >= 0 {
			s.SetServerDown(tc.down, true)
			ref.down[tc.down] = true
		}
		got, want := s.Validate(1e-6), ref.validate(1e-6)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: Validate %v, reference %v", name, got, want)
		}
		if (got == nil) != (name == "valid") {
			t.Errorf("%s: Validate %v", name, got)
		}
	}
}
