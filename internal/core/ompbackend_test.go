package core

import (
	"testing"

	"lulesh/internal/domain"
)

// warmOMP builds a fork-join backend for d and runs two cycles so every
// lazily sized buffer has reached its steady-state size.
func warmOMP(t *testing.T, d *domain.Domain, threads int) *BackendOMP {
	t.Helper()
	b := NewBackendOMP(d, threads)
	t.Cleanup(b.Close)
	for i := 0; i < 2; i++ {
		TimeIncrement(d)
		if err := b.Step(d); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// TestOMPStepAllocatesNothing: a warm static-schedule step dispatches loop
// bodies built once per domain, so it allocates nothing at any team size.
// The dynamic and guided schedules still allocate one shared chunk cursor
// and its closure per construct, and are not covered.
func TestOMPStepAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate skipped under -race")
	}
	for _, spec := range []string{"sedov", "multimat"} {
		for _, threads := range []int{1, 2} {
			d := buildScenario(t, spec, 8)
			b := warmOMP(t, d, threads)
			allocs := testing.AllocsPerRun(2, func() {
				TimeIncrement(d)
				if err := b.Step(d); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s, %d threads: %v allocs per warm step, want 0", spec, threads, allocs)
			}
		}
	}
}

// TestOMPConstructsPerCycle pins the fork-join construct count of one
// step: 17 fixed loops and regions, five per material region (monotonic Q,
// the two constraint reductions, the EOS store and sound speed), and nine
// per EOS repetition. A cheaper comparator may make each barrier cost
// less; it may not issue fewer of them.
func TestOMPConstructsPerCycle(t *testing.T) {
	for _, spec := range []string{"sedov", "multimat"} {
		for _, threads := range []int{1, 2} {
			d := buildScenario(t, spec, 6)
			if d.Par.HGCoef <= 0 {
				t.Fatalf("%s: formula assumes hourglass control is on", spec)
			}
			b := warmOMP(t, d, threads)
			numReg := len(d.Regions.ElemList)
			reps := 0
			for r := range d.Regions.ElemList {
				reps += d.Regions.Rep(r)
			}
			want := int64(17 + 5*numReg + 9*reps)
			for i := 0; i < 2; i++ {
				before := b.pool.CountersSnapshot().Regions
				TimeIncrement(d)
				if err := b.Step(d); err != nil {
					t.Fatal(err)
				}
				if got := b.pool.CountersSnapshot().Regions - before; got != want {
					t.Fatalf("%s, %d threads: %d constructs per step, want %d "+
						"(17 + 5*%d regions + 9*%d repetitions)",
						spec, threads, got, want, numReg, reps)
				}
			}
		}
	}
}
