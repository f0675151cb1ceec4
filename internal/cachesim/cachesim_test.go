package cachesim

import (
	"math"
	"testing"

	"aa/internal/core"
	"aa/internal/rng"
)

var testCfg = Config{Sets: 64, Ways: 16, LineSize: 64}

func TestConfigValidate(t *testing.T) {
	if err := testCfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Sets: 0, Ways: 1, LineSize: 1},
		{Sets: 1, Ways: 0, LineSize: 1},
		{Sets: 1, Ways: 1, LineSize: 0},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("accepted bad config %+v", cfg)
		}
	}
}

func TestPartitionZeroWaysAlwaysMisses(t *testing.T) {
	p, err := NewPartition(testCfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if p.Access(uint64(i % 3 * 64)) {
			t.Fatal("hit with zero ways")
		}
	}
	if p.HitRate() != 0 {
		t.Errorf("hit rate %v, want 0", p.HitRate())
	}
}

func TestPartitionRejectsBadWays(t *testing.T) {
	if _, err := NewPartition(testCfg, -1); err == nil {
		t.Error("negative ways accepted")
	}
	if _, err := NewPartition(testCfg, testCfg.Ways+1); err == nil {
		t.Error("oversized ways accepted")
	}
}

func TestPartitionHitsOnReuse(t *testing.T) {
	p, _ := NewPartition(testCfg, 4)
	addr := uint64(0x1000)
	if p.Access(addr) {
		t.Error("first access hit")
	}
	if !p.Access(addr) {
		t.Error("second access missed")
	}
	// Same line, different byte offset.
	if !p.Access(addr + 63) {
		t.Error("same-line access missed")
	}
	// Different line.
	if p.Access(addr + 64*64*64) {
		t.Error("distinct line hit")
	}
}

func TestPartitionLRUEviction(t *testing.T) {
	// 1 set, 2 ways: access lines A, B, C (all mapping to set 0), then A
	// must have been evicted.
	cfg := Config{Sets: 1, Ways: 2, LineSize: 64}
	p, _ := NewPartition(cfg, 2)
	a, b, c := uint64(0), uint64(64), uint64(128)
	p.Access(a)
	p.Access(b)
	p.Access(c) // evicts a (LRU)
	if p.Access(a) {
		t.Error("A survived eviction")
	}
	// Now the set holds {a, c} (b was evicted when a reloaded).
	if p.Access(b) {
		t.Error("B should have been evicted")
	}
}

func TestPartitionLRURecency(t *testing.T) {
	cfg := Config{Sets: 1, Ways: 2, LineSize: 64}
	p, _ := NewPartition(cfg, 2)
	a, b, c := uint64(0), uint64(64), uint64(128)
	p.Access(a)
	p.Access(b)
	p.Access(a) // refresh a; b is now LRU
	p.Access(c) // evicts b
	if !p.Access(a) {
		t.Error("A was evicted despite being MRU")
	}
}

func TestPartitionReset(t *testing.T) {
	p, _ := NewPartition(testCfg, 2)
	p.Access(0)
	p.Access(0)
	p.Reset()
	if p.Hits() != 0 || p.Accesses() != 0 {
		t.Error("counters survived reset")
	}
	if p.Access(0) {
		t.Error("contents survived reset")
	}
}

func TestSimulateHitsEmptyTrace(t *testing.T) {
	if _, _, err := SimulateHits(testCfg, 2, nil); err != ErrEmptyTrace {
		t.Errorf("err = %v, want ErrEmptyTrace", err)
	}
}

// LRU inclusion: hit count is nondecreasing in way count for any trace.
func TestStackProperty(t *testing.T) {
	r := rng.New(3)
	gens := []TraceGen{
		WorkingSet{Lines: 300, LineSize: 64},
		ZipfReuse{Lines: 500, S: 1.2, LineSize: 64},
		SequentialLoop{Lines: 200, LineSize: 64},
		Mixture{A: WorkingSet{Lines: 100, LineSize: 64}, B: Stream{LineSize: 64}, P: 0.7},
	}
	for _, g := range gens {
		trace := g.Generate(20000, r)
		prev := -1
		for w := 0; w <= testCfg.Ways; w++ {
			hits, _, err := SimulateHits(testCfg, w, trace)
			if err != nil {
				t.Fatal(err)
			}
			if hits < prev {
				t.Errorf("%s: hits(%d ways) = %d < hits(%d ways) = %d",
					g.Name(), w, hits, w-1, prev)
			}
			prev = hits
		}
	}
}

func TestStreamNeverHits(t *testing.T) {
	trace := Stream{LineSize: 64}.Generate(5000, rng.New(1))
	hits, _, err := SimulateHits(testCfg, testCfg.Ways, trace)
	if err != nil {
		t.Fatal(err)
	}
	if hits != 0 {
		t.Errorf("streaming trace hit %d times", hits)
	}
}

func TestWorkingSetSaturates(t *testing.T) {
	// A working set of 256 lines over 64 sets needs ~4 ways; at full
	// associativity the steady-state hit rate should be near 1.
	trace := WorkingSet{Lines: 256, LineSize: 64}.Generate(60000, rng.New(2))
	p, err := ProfileThread(testCfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	if p.HitRate[testCfg.Ways] < 0.95 {
		t.Errorf("full-cache hit rate %v, want > 0.95", p.HitRate[testCfg.Ways])
	}
	if p.HitRate[0] != 0 {
		t.Errorf("0-way hit rate %v, want 0", p.HitRate[0])
	}
	if !p.Monotone() {
		t.Error("profile not monotone")
	}
}

func TestLoopCliffAndEnvelope(t *testing.T) {
	// A sequential loop of 6 lines in a 1-set cache: with < 6 ways LRU
	// thrashes (0 hits), with 6 ways everything hits — a convex cliff.
	cfg := Config{Sets: 1, Ways: 8, LineSize: 64}
	trace := SequentialLoop{Lines: 6, LineSize: 64}.Generate(6000, rng.New(4))
	p, err := ProfileThread(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	if p.HitRate[5] > 0.01 {
		t.Errorf("hit rate with 5 ways = %v, want ~0 (LRU thrash)", p.HitRate[5])
	}
	if p.HitRate[6] < 0.99 {
		t.Errorf("hit rate with 6 ways = %v, want ~1", p.HitRate[6])
	}
	env := p.ConcaveEnvelope()
	// Envelope dominates the curve and is concave.
	for w := range env {
		if env[w] < p.HitRate[w]-1e-12 {
			t.Errorf("envelope below curve at %d ways", w)
		}
	}
	for w := 2; w < len(env); w++ {
		s1 := env[w-1] - env[w-2]
		s2 := env[w] - env[w-1]
		if s2 > s1+1e-9 {
			t.Errorf("envelope convex at %d ways", w)
		}
	}
	// Envelope touches the curve at the cliff top.
	if math.Abs(env[6]-p.HitRate[6]) > 1e-12 {
		t.Errorf("envelope detached at the cliff: %v vs %v", env[6], p.HitRate[6])
	}
}

func TestConcaveEnvelopeIdempotentOnConcaveData(t *testing.T) {
	p := Profile{HitRate: []float64{0, 0.5, 0.75, 0.875, 0.9}}
	env := p.ConcaveEnvelope()
	for i := range env {
		if math.Abs(env[i]-p.HitRate[i]) > 1e-12 {
			t.Errorf("concave data changed at %d: %v vs %v", i, env[i], p.HitRate[i])
		}
	}
}

func TestThroughputModel(t *testing.T) {
	m := ThroughputModel{HitCycles: 1, MissPenalty: 40, Weight: 2}
	if got := m.Throughput(1); got != 2 {
		t.Errorf("all-hit throughput %v, want 2", got)
	}
	if got := m.Throughput(0); math.Abs(got-2.0/41) > 1e-12 {
		t.Errorf("all-miss throughput %v, want %v", got, 2.0/41)
	}
}

func TestProfileUtilityIsValidAAUtility(t *testing.T) {
	trace := WorkingSet{Lines: 256, LineSize: 64}.Generate(40000, rng.New(5))
	p, err := ProfileThread(testCfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	f, err := p.Utility(DefaultModel)
	if err != nil {
		t.Fatal(err)
	}
	if f.Cap() != float64(testCfg.Ways) {
		t.Errorf("Cap = %v, want %d", f.Cap(), testCfg.Ways)
	}
	// Monotone and concave by construction (piecewise-linear envelope).
	prev := f.Value(0)
	for x := 0.0; x <= f.Cap(); x += 0.25 {
		v := f.Value(x)
		if v < prev-1e-9 {
			t.Fatalf("utility decreases at %v", x)
		}
		prev = v
	}
}

func TestEndToEndPipelinePredictionMatchesCoRun(t *testing.T) {
	cfg := Config{Sets: 32, Ways: 8, LineSize: 64}
	r := rng.New(6)
	gens := []TraceGen{
		WorkingSet{Lines: 120, LineSize: 64, Base: 0},
		WorkingSet{Lines: 60, LineSize: 64, Base: 1 << 30},
		ZipfReuse{Lines: 400, S: 1.3, LineSize: 64, Base: 2 << 30},
		Stream{LineSize: 64, Base: 3 << 30},
		WorkingSet{Lines: 200, LineSize: 64, Base: 4 << 30},
		ZipfReuse{Lines: 300, S: 0.9, LineSize: 64, Base: 5 << 30},
	}
	workloads := GenerateWorkloads(gens, 30000, DefaultModel, r)
	in, profiles, err := BuildInstance(cfg, 2, workloads)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != len(gens) || in.N() != len(gens) {
		t.Fatalf("pipeline shape wrong")
	}
	a := core.Assign2(in)
	if err := a.Validate(in, 1e-9); err != nil {
		t.Fatal(err)
	}
	res, err := CoRun(cfg, 2, workloads, a)
	if err != nil {
		t.Fatal(err)
	}
	// Socket budgets respected.
	for s, load := range res.SocketLoads {
		if load > cfg.Ways {
			t.Errorf("socket %d over budget: %d", s, load)
		}
	}
	// Measured total should be close to the model's prediction at the
	// quantized allocation (identical traces, so only envelope gaps and
	// quantization separate them).
	pred := PredictedTotal(in, res.Ways)
	if math.Abs(res.Total-pred) > 0.15*pred {
		t.Errorf("co-run total %v far from predicted %v", res.Total, pred)
	}
	// AA should beat naive equal partitioning (round robin + equal ways).
	uu := core.AssignUU(in)
	uuRes, err := CoRun(cfg, 2, workloads, uu)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total < uuRes.Total*0.99 {
		t.Errorf("AA co-run %v worse than UU co-run %v", res.Total, uuRes.Total)
	}
}

func TestQuantizeWaysRespectsBudget(t *testing.T) {
	in := &core.Instance{M: 2, C: 8}
	a := core.Assignment{
		Server: []int{0, 0, 1, 1, 1},
		Alloc:  []float64{3.7, 4.3, 2.5, 2.5, 3.0},
	}
	ways := QuantizeWays(in, a, 8)
	sums := map[int]int{}
	totalFrac := 0.0
	for i, w := range ways {
		sums[a.Server[i]] += w
		totalFrac += a.Alloc[i]
		if math.Abs(float64(w)-a.Alloc[i]) >= 1 {
			t.Errorf("thread %d: quantized %d far from %v", i, w, a.Alloc[i])
		}
	}
	for s, sum := range sums {
		if sum > 8 {
			t.Errorf("server %d over budget: %d ways", s, sum)
		}
	}
}

func TestMixtureAndNames(t *testing.T) {
	m := Mixture{A: WorkingSet{Lines: 10, LineSize: 64}, B: Stream{LineSize: 64}, P: 0.5}
	if m.Name() != "mix(workingset,stream)" {
		t.Errorf("Name() = %q", m.Name())
	}
	trace := m.Generate(100, rng.New(7))
	if len(trace) != 100 {
		t.Errorf("trace length %d", len(trace))
	}
}

func BenchmarkPartitionAccess(b *testing.B) {
	p, _ := NewPartition(testCfg, 8)
	trace := WorkingSet{Lines: 500, LineSize: 64}.Generate(b.N, rng.New(1))
	b.ResetTimer()
	for _, a := range trace {
		p.Access(a)
	}
}

func BenchmarkProfileThread(b *testing.B) {
	trace := WorkingSet{Lines: 300, LineSize: 64}.Generate(20000, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ProfileThread(testCfg, trace); err != nil {
			b.Fatal(err)
		}
	}
}

func TestOptimizeWaysAvoidsWastedCliffWays(t *testing.T) {
	// One loop thread (cliff at 10 ways), one working-set thread, one
	// streamer on a single socket. The refined allocation must give the
	// loop 0 or >= 10 ways, never a useless partial cliff.
	cfg := Config{Sets: 64, Ways: 16, LineSize: 64}
	r := rng.New(31)
	gens := []TraceGen{
		SequentialLoop{Lines: 640, LineSize: 64, Base: 0}, // cliff at 10 ways
		WorkingSet{Lines: 800, LineSize: 64, Base: 1 << 30},
		Stream{LineSize: 64, Base: 2 << 30},
	}
	workloads := GenerateWorkloads(gens, 30000, DefaultModel, r)
	in, profiles, err := BuildInstance(cfg, 1, workloads)
	if err != nil {
		t.Fatal(err)
	}
	a := core.Assign2(in)
	ways := OptimizeWays(cfg, 1, workloads, profiles, a)
	if ways[0] != 0 && ways[0] < 10 {
		t.Errorf("loop thread got %d ways — a useless partial cliff", ways[0])
	}
	// Budget respected.
	sum := 0
	for _, w := range ways {
		sum += w
	}
	if sum > cfg.Ways {
		t.Errorf("refined ways %v exceed budget %d", ways, cfg.Ways)
	}
	// The DP refinement must not lose to plain quantization (that
	// allocation is feasible for the DP).
	plain, err := CoRun(cfg, 1, workloads, a)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := CoRunWays(cfg, 1, workloads, a, ways)
	if err != nil {
		t.Fatal(err)
	}
	if refined.Total < plain.Total*(1-1e-9) {
		t.Errorf("DP refinement (%v) lost to plain quantization (%v)",
			refined.Total, plain.Total)
	}
}

func TestOptimizeWaysPredictionExactAtMeasuredCurves(t *testing.T) {
	// The refined allocation is chosen on the measured curves, so the
	// measured co-run must match the measured-curve total exactly, and
	// stay close to the envelope model's prediction on concave profiles.
	cfg := Config{Sets: 32, Ways: 8, LineSize: 64}
	r := rng.New(32)
	gens := []TraceGen{
		WorkingSet{Lines: 120, LineSize: 64, Base: 0},
		ZipfReuse{Lines: 400, S: 1.2, LineSize: 64, Base: 1 << 30},
		WorkingSet{Lines: 200, LineSize: 64, Base: 2 << 30},
	}
	workloads := GenerateWorkloads(gens, 20000, DefaultModel, r)
	in, profiles, err := BuildInstance(cfg, 1, workloads)
	if err != nil {
		t.Fatal(err)
	}
	a := core.Assign2(in)
	ways := OptimizeWays(cfg, 1, workloads, profiles, a)
	res, err := CoRunWays(cfg, 1, workloads, a, ways)
	if err != nil {
		t.Fatal(err)
	}
	fromCurves := 0.0
	for i := range profiles {
		fromCurves += workloads[i].Model.Throughput(profiles[i].HitRate[ways[i]])
	}
	if math.Abs(res.Total-fromCurves) > 1e-9 {
		t.Errorf("co-run %v != measured-curve total %v", res.Total, fromCurves)
	}
	pred := PredictedTotal(in, ways)
	if math.Abs(res.Total-pred) > 0.15*pred {
		t.Errorf("refined co-run %v far from envelope prediction %v", res.Total, pred)
	}
}

func TestSharedCoRunStreamerWrecksNeighbours(t *testing.T) {
	// A hot working set co-located with an aggressive streamer on a
	// shared cache loses most of its hits; under partitioning (AA) the
	// streamer gets no ways and the working set keeps its hit rate.
	cfg := Config{Sets: 16, Ways: 4, LineSize: 64}
	r := rng.New(41)
	gens := []TraceGen{
		WorkingSet{Lines: 48, LineSize: 64, Base: 0}, // fits in 3 ways
		Stream{LineSize: 64, Base: 1 << 30},
	}
	workloads := GenerateWorkloads(gens, 30000, DefaultModel, r)
	servers := []int{0, 0}

	shared, err := SharedCoRun(cfg, 1, workloads, servers)
	if err != nil {
		t.Fatal(err)
	}
	in, profiles, err := BuildInstance(cfg, 1, workloads)
	if err != nil {
		t.Fatal(err)
	}
	a := core.Assign2(in)
	ways := OptimizeWays(cfg, 1, workloads, profiles, a)
	part, err := CoRunWays(cfg, 1, workloads, a, ways)
	if err != nil {
		t.Fatal(err)
	}
	// The streamer floods the shared LRU: the working set's shared hit
	// rate must be visibly below its partitioned hit rate.
	if shared.HitRate[0] > part.HitRate[0]-0.05 {
		t.Errorf("shared hit rate %v not clearly below partitioned %v",
			shared.HitRate[0], part.HitRate[0])
	}
	if part.Total < shared.Total {
		t.Errorf("partitioned total %v below shared %v", part.Total, shared.Total)
	}
}

func TestSharedCoRunValidatesInput(t *testing.T) {
	cfg := Config{Sets: 4, Ways: 2, LineSize: 64}
	workloads := GenerateWorkloads([]TraceGen{Stream{LineSize: 64}}, 100, DefaultModel, rng.New(1))
	if _, err := SharedCoRun(cfg, 1, workloads, []int{0, 1}); err == nil {
		t.Error("mismatched servers slice accepted")
	}
}

func TestSharedCoRunAloneMatchesPartitionFullWays(t *testing.T) {
	// A thread alone on a socket sees the whole cache either way.
	cfg := Config{Sets: 16, Ways: 4, LineSize: 64}
	workloads := GenerateWorkloads(
		[]TraceGen{WorkingSet{Lines: 80, LineSize: 64}}, 20000, DefaultModel, rng.New(42))
	shared, err := SharedCoRun(cfg, 1, workloads, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	hits, accesses, err := SimulateHits(cfg, cfg.Ways, workloads[0].Trace)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(hits) / float64(accesses)
	if math.Abs(shared.HitRate[0]-want) > 1e-12 {
		t.Errorf("alone shared hit rate %v != full partition %v", shared.HitRate[0], want)
	}
}

// Monotone reports whether the measured curve is nondecreasing (the LRU
// stack property predicts it always is; a violation indicates a
// simulator bug).
func (p Profile) Monotone() bool {
	for i := 1; i < len(p.HitRate); i++ {
		if p.HitRate[i] < p.HitRate[i-1]-1e-12 {
			return false
		}
	}
	return true
}
