package dist

import (
	"math"
	"testing"
	"time"

	"lulesh/internal/core"
	"lulesh/internal/domain"
)

// TestSingleRankMatchesSerialBitwise: with one rank there are no
// communication faces, so the distributed driver must reproduce the
// single-domain serial backend exactly.
func TestSingleRankMatchesSerialBitwise(t *testing.T) {
	const size = 6
	const steps = 12
	res, err := Run(Config{
		Nx: size, Ny: size, NzPerRank: size, Ranks: 1,
		NumReg: 11, Balance: 1, Cost: 1, MaxIterations: steps,
	})
	if err != nil {
		t.Fatal(err)
	}

	d := domain.NewSedov(domain.DefaultConfig(size))
	b := core.NewBackendSerial(d)
	defer b.Close()
	ref, err := core.Run(d, b, core.RunConfig{MaxIterations: steps})
	if err != nil {
		t.Fatal(err)
	}
	if res.OriginEnergy != ref.OriginEnergy {
		t.Fatalf("origin energy %v != serial %v", res.OriginEnergy, ref.OriginEnergy)
	}
	if res.FinalTime != ref.FinalTime || res.Iterations != ref.Iterations {
		t.Fatalf("time stepping diverged: %v/%d vs %v/%d",
			res.FinalTime, res.Iterations, ref.FinalTime, ref.Iterations)
	}
}

// TestTwoRanksMatchMonolithicBox: a 2-rank stack must reproduce the same
// physics as a single tall-box domain. The decomposition regroups the
// shared-plane force summation ((4 corners)+(4 corners) instead of 8 in
// CSR order), so agreement is to tight tolerance rather than bitwise.
func TestTwoRanksMatchMonolithicBox(t *testing.T) {
	const s = 4
	const ranks = 2
	const steps = 12

	res, err := Run(Config{
		Nx: s, Ny: s, NzPerRank: s, Ranks: ranks,
		NumReg: 1, Balance: 1, Cost: 1, MaxIterations: steps,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Monolithic reference: one tall box with the same total extent.
	d := domain.NewSedovBox(domain.BoxConfig{
		Nx: s, Ny: s, Nz: ranks * s,
		NumReg: 1, Balance: 1, Cost: 1,
		DepositEnergy: true,
	})
	b := core.NewBackendSerial(d)
	defer b.Close()
	ref, err := core.Run(d, b, core.RunConfig{MaxIterations: steps})
	if err != nil {
		t.Fatal(err)
	}

	relDiff := func(a, c float64) float64 {
		den := math.Max(math.Abs(a), math.Abs(c))
		if den < 1e-300 {
			return 0
		}
		return math.Abs(a-c) / den
	}
	if d := relDiff(res.OriginEnergy, ref.OriginEnergy); d > 1e-9 {
		t.Fatalf("origin energy differs by %v: %v vs %v",
			d, res.OriginEnergy, ref.OriginEnergy)
	}
	refTotal := 0.0
	for e := 0; e < d.NumElem(); e++ {
		refTotal += d.E[e] * d.Volo[e]
	}
	if diff := relDiff(res.TotalEnergy, refTotal); diff > 1e-9 {
		t.Fatalf("total energy differs by %v: %v vs %v",
			diff, res.TotalEnergy, refTotal)
	}
	if res.Iterations != ref.Iterations {
		t.Fatalf("cycle counts differ: %d vs %d", res.Iterations, ref.Iterations)
	}
	if relDiff(res.FinalTime, ref.FinalTime) > 1e-12 {
		t.Fatalf("final times differ: %v vs %v", res.FinalTime, ref.FinalTime)
	}
}

// TestThreeRanks: deeper stacks run and conserve sensible physics.
func TestThreeRanks(t *testing.T) {
	const s = 4
	res, err := Run(Config{
		Nx: s, Ny: s, NzPerRank: s, Ranks: 3,
		NumReg: 3, Balance: 1, Cost: 1, MaxIterations: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OriginEnergy <= 0 {
		t.Fatalf("origin energy %v", res.OriginEnergy)
	}
	if res.TotalEnergy <= 0 {
		t.Fatalf("total energy %v", res.TotalEnergy)
	}
	if len(res.Ranks) != 3 {
		t.Fatalf("rank stats missing: %d", len(res.Ranks))
	}
	// Interior rank talks to two neighbours; it must have sent more
	// messages than the end ranks.
	if res.Ranks[1].Comm.Sent <= res.Ranks[0].Comm.Sent {
		t.Fatalf("interior rank sent %d <= end rank %d",
			res.Ranks[1].Comm.Sent, res.Ranks[0].Comm.Sent)
	}
}

// TestSyncAsyncBitwiseIdentical: the overlapped schedule reorders
// computation and communication but performs the identical arithmetic, so
// the results must match bit for bit.
func TestSyncAsyncBitwiseIdentical(t *testing.T) {
	const s = 4
	base := Config{
		Nx: s, Ny: s, NzPerRank: s, Ranks: 2,
		NumReg: 5, Balance: 1, Cost: 1, MaxIterations: 20,
	}
	syncCfg := base
	asyncCfg := base
	asyncCfg.Async = true

	a, err := Run(syncCfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(asyncCfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.OriginEnergy != b.OriginEnergy {
		t.Fatalf("origin energy: sync %v vs async %v", a.OriginEnergy, b.OriginEnergy)
	}
	if a.TotalEnergy != b.TotalEnergy {
		t.Fatalf("total energy: sync %v vs async %v", a.TotalEnergy, b.TotalEnergy)
	}
	if a.FinalTime != b.FinalTime || a.Iterations != b.Iterations {
		t.Fatal("time stepping diverged between schedules")
	}
}

// TestAsyncFullRunStable: the overlapped schedule survives a complete run
// of a small stack.
func TestAsyncFullRunStable(t *testing.T) {
	if testing.Short() {
		t.Skip("full run in -short mode")
	}
	res, err := Run(Config{
		Nx: 4, Ny: 4, NzPerRank: 4, Ranks: 2,
		NumReg: 11, Balance: 1, Cost: 1, Async: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalTime < 1e-2-1e-9 {
		t.Fatalf("run stopped early at %v", res.FinalTime)
	}
}

// TestRanksValidation rejects empty clusters.
func TestRanksValidation(t *testing.T) {
	if _, err := Run(Config{Nx: 2, Ny: 2, NzPerRank: 2, Ranks: 0, NumReg: 1}); err == nil {
		t.Fatal("Ranks=0 should error")
	}
}

// TestDomainsDecomposition checks the per-rank domain geometry.
func TestDomainsDecomposition(t *testing.T) {
	cfg := Config{Nx: 3, Ny: 3, NzPerRank: 2, Ranks: 3, NumReg: 1}
	ds := Domains(cfg)
	if len(ds) != 3 {
		t.Fatalf("%d domains", len(ds))
	}
	h := 1.125 / 3.0
	for r, d := range ds {
		if d.Mesh.Nz != 2 {
			t.Fatalf("rank %d Nz = %d", r, d.Mesh.Nz)
		}
		wantZ := h * float64(2*r)
		if math.Abs(d.Z[0]-wantZ) > 1e-12 {
			t.Fatalf("rank %d z offset %v, want %v", r, d.Z[0], wantZ)
		}
		if (d.Mesh.CommZMin != (r > 0)) || (d.Mesh.CommZMax != (r < 2)) {
			t.Fatalf("rank %d comm faces wrong", r)
		}
		if r == 0 && d.E[0] == 0 {
			t.Fatal("rank 0 must own the energy deposit")
		}
		if r > 0 && d.E[0] != 0 {
			t.Fatalf("rank %d has spurious energy", r)
		}
	}
	// Consecutive slabs tile z exactly.
	top := ds[0].Z[ds[0].NumNode()-1]
	if math.Abs(top-ds[1].Z[0]) > 1e-12 {
		t.Fatalf("slabs do not tile: %v vs %v", top, ds[1].Z[0])
	}
}

// TestErrorPropagatesAcrossRanks: a failure on one rank must abort the
// whole cluster instead of deadlocking the others.
func TestErrorPropagatesAcrossRanks(t *testing.T) {
	cfg := Config{
		Nx: 4, Ny: 4, NzPerRank: 4, Ranks: 2,
		NumReg: 1, Balance: 1, Cost: 1, MaxIterations: 100,
	}
	// Poison via an impossible qstop on every rank's params is not
	// reachable from Config; instead force a volume error by running a
	// huge iteration count on a tiny, violent problem... the standard
	// Sedov setup never fails, so drive the protocol directly.
	cluster := newTestCluster(cfg)
	done := make(chan error, 2)
	for i, rk := range cluster {
		rk := rk
		if i == 1 {
			rk.d.V[0] = -1 // invalid state detected by hourglass prep
		}
		go func() { done <- rk.run(cfg.MaxIterations) }()
	}
	err0, err1 := <-done, <-done
	if err0 == nil && err1 == nil {
		t.Fatal("no rank reported the failure")
	}
}

// newTestCluster builds connected ranks without running them.
func newTestCluster(cfg Config) []*rank {
	c := newCommCluster(cfg.Ranks)
	out := make([]*rank, cfg.Ranks)
	for r := 0; r < cfg.Ranks; r++ {
		out[r] = newRank(cfg, c, r)
	}
	return out
}

// TestAsyncHidesLatency: on a fabric with link latency, the overlapped
// schedule must accumulate materially less blocked time than the
// synchronous schedule — the quantitative content of the paper's
// future-work claim. The mechanism — the latency was paid, the
// overlapped schedule had interior work to run in its shadow, and the
// physics did not move — is checked in every run; the wait comparison is
// wall-clock and runs only with LULESH_PERF_GATES=1.
func TestAsyncHidesLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the compute/latency ratio")
	}
	// The interior compute per phase must exceed the link latency for the
	// overlap to hide it fully: 16^3 elements per rank give a few
	// milliseconds of interior work per phase against 2 ms latency.
	base := Config{
		Nx: 16, Ny: 16, NzPerRank: 16, Ranks: 2,
		NumReg: 1, Balance: 1, Cost: 1,
		MaxIterations: 8, Latency: 2 * time.Millisecond,
	}
	run := func(cfg Config) (Result, []*rank, time.Duration) {
		res, ranks, err := runToCompletion(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var total time.Duration
		for _, rs := range res.Ranks {
			total += rs.Comm.Wait
		}
		return res, ranks, total
	}
	syncCfg, asyncCfg := base, base
	asyncCfg.Async = true

	syncRes, _, syncWait := run(syncCfg)
	asyncRes, asyncRanks, asyncWait := run(asyncCfg)
	// Each of the 8 x 2 synchronous exchange seams costs the two ranks
	// together at least one latency, whatever their skew; ask for half.
	if syncWait < 8*2*base.Latency/2 {
		t.Fatalf("sync wait %v implausibly small for %v latency", syncWait, base.Latency)
	}
	if syncRes.OriginEnergy != asyncRes.OriginEnergy || syncRes.TotalEnergy != asyncRes.TotalEnergy {
		t.Fatalf("overlapped schedule changed the physics: %v/%v vs %v/%v",
			asyncRes.OriginEnergy, asyncRes.TotalEnergy, syncRes.OriginEnergy, syncRes.TotalEnergy)
	}
	for _, rk := range asyncRanks {
		if rk.elemPlan.Interior.Empty() || rk.nodePlan.Interior.Empty() {
			t.Fatalf("rank %d has no interior to overlap with its frames", rk.id)
		}
	}
	if !perfGates() {
		t.Logf("async wait %v vs sync wait %v; set LULESH_PERF_GATES=1 to gate it", asyncWait, syncWait)
		return
	}

	// Sync pays the full latency at two phase boundaries per iteration;
	// async overlaps it with interior computation. Timing noise (loaded
	// machines, coverage instrumentation) can swamp one attempt, so allow
	// a few tries before declaring the mechanism broken.
	for attempt := 0; asyncWait >= syncWait*3/4 && attempt < 3; attempt++ {
		_, _, syncWait = run(syncCfg)
		_, _, asyncWait = run(asyncCfg)
	}
	if asyncWait >= syncWait*3/4 {
		t.Errorf("overlap did not hide latency in any attempt: async wait %v vs sync wait %v",
			asyncWait, syncWait)
	}
}

// TestHybridThreadsBitwiseInvariant: MPI+X execution (threads within each
// rank) must not change any value relative to serial-per-rank execution.
func TestHybridThreadsBitwiseInvariant(t *testing.T) {
	base := Config{
		Nx: 5, Ny: 5, NzPerRank: 5, Ranks: 2,
		NumReg: 5, Balance: 1, Cost: 1, MaxIterations: 15,
	}
	serial, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	hybrid := base
	hybrid.ThreadsPerRank = 2
	got, err := Run(hybrid)
	if err != nil {
		t.Fatal(err)
	}
	if serial.OriginEnergy != got.OriginEnergy || serial.TotalEnergy != got.TotalEnergy {
		t.Fatalf("hybrid execution changed results: %v/%v vs %v/%v",
			serial.OriginEnergy, serial.TotalEnergy, got.OriginEnergy, got.TotalEnergy)
	}
	if serial.Iterations != got.Iterations || serial.FinalTime != got.FinalTime {
		t.Fatal("hybrid execution changed time stepping")
	}
}

// TestHybridAsyncCombination: overlap + per-rank threading compose.
func TestHybridAsyncCombination(t *testing.T) {
	cfg := Config{
		Nx: 5, Ny: 5, NzPerRank: 5, Ranks: 2,
		NumReg: 3, Balance: 1, Cost: 1, MaxIterations: 10,
		Async: true, ThreadsPerRank: 2,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(Config{
		Nx: 5, Ny: 5, NzPerRank: 5, Ranks: 2,
		NumReg: 3, Balance: 1, Cost: 1, MaxIterations: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OriginEnergy != ref.OriginEnergy {
		t.Fatalf("hybrid async differs: %v vs %v", res.OriginEnergy, ref.OriginEnergy)
	}
}
