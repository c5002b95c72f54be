package main

import (
	"fmt"
	"runtime/debug"
	"time"

	"lulesh/internal/dist"
)

// The dist2slab problem: a 48 x 48 x 16 box, run three ways. The primary
// splits it into two thin slabs, one rank per core, with the overlapped
// exchange; omp and serial run the same box as one rank with two threads
// and with one, so they pay no exchange at all.
const (
	distNx      = 48
	distLatency = 200 * time.Microsecond
)

// A round runs the primary twice: it is the one the bounds are about.
var distVariants = []string{"serial", "omp", "primary", "primary"}

func (r *distRun) config(variant string, cycles int) dist.Config {
	ranks, threads := 1, 1
	switch variant {
	case "primary":
		ranks = workers
	case "omp":
		threads = workers
	}
	cfg := dist.DefaultConfig(r.nx, ranks)
	cfg.NzPerRank = r.nz / ranks
	cfg.ThreadsPerRank = threads
	cfg.Async = true
	cfg.Latency = distLatency
	cfg.MaxIterations = cycles
	return cfg
}

func (r *distRun) key(variant string) string {
	return fmt.Sprintf("dist|%dx%dx%d|%s|c%d", r.nx, r.nx, r.nz, variant, r.cycles)
}

func (r *distRun) zones() float64 { return float64(r.nx * r.nx * r.nz) }

// distRun accumulates whole-run reps: dist has no per-cycle callback.
type distRun struct {
	nx, nz  int // the box is nx x nx x nz
	cycles  int
	grind   map[string][]float64 // µs per zone-cycle of each rep, tracing off
	traced  []float64            // primary reps from rounds with tracing on
	stepMs  []float64            // primary reps: Elapsed / cycles
	setupS  []float64
	msgs    []float64 // primary reps: messages and bytes sent per step, all ranks
	bytes   []float64
	imbal   []float64
	wait    time.Duration // sums over primary reps and ranks
	ghost   time.Duration
	reduce  time.Duration
	stepSum time.Duration
}

func newDistRun(e *env) *distRun {
	r := &distRun{nx: distNx, nz: 16, cycles: 20, grind: map[string][]float64{}}
	if e.smoke {
		r.nx, r.nz, r.cycles = 12, 4, 3
	}
	return r
}

// rep is one dist.Run of a variant; it counts as one operation.
func (r *distRun) rep(e *env, parent, round int, variant string, traced bool) {
	debug.FreeOSMemory() // the previous rep's domains, so the resident set holds one rep at a time
	sp := e.tr.start(parent, "dist.Run:"+variant, "dist", round, 0)
	res, err := dist.Run(r.config(variant, r.cycles))
	e.tr.end(sp)
	switch {
	case err != nil:
		e.op(fmt.Errorf("dist %s: %w", variant, err))
		return
	case res.Iterations != r.cycles:
		e.op(fmt.Errorf("dist %s stopped at cycle %d, want %d", variant, res.Iterations, r.cycles))
		return
	}
	e.op(e.gold.check(r.key(variant), res.OriginEnergy, res.TotalEnergy))

	g := float64(res.Elapsed) / 1e3 / (r.zones() * float64(r.cycles))
	if traced {
		if variant == "primary" {
			r.traced = append(r.traced, g)
		}
		return
	}
	r.grind[variant] = append(r.grind[variant], g)
	if variant != "primary" {
		return
	}
	r.stepMs = append(r.stepMs, float64(res.Elapsed)/1e6/float64(r.cycles))
	var sent, bytes int64
	lo, hi := res.Ranks[0].StepTime, res.Ranks[0].StepTime
	for _, rk := range res.Ranks {
		sent += rk.Comm.Sent
		bytes += rk.Comm.BytesSent
		r.wait += rk.Comm.Wait
		r.ghost += rk.Comm.WaitGhost
		r.reduce += rk.Comm.WaitReduce
		r.stepSum += rk.StepTime
		lo, hi = min(lo, rk.StepTime), max(hi, rk.StepTime)
	}
	r.msgs = append(r.msgs, float64(sent)/float64(r.cycles))
	r.bytes = append(r.bytes, float64(bytes)/float64(r.cycles))
	r.imbal = append(r.imbal, float64(hi)/float64(lo))
}

// round starts with one 1-cycle run per variant: what every rep pays
// before its first step (domains, goroutines, the nodal-mass exchange and
// a cold cycle), reported as set-up.
func (r *distRun) round(e *env, parent, round int, traced bool) {
	t0 := time.Now()
	sp := e.tr.start(parent, "warm-up", "dist", round, 0)
	for _, v := range distVariants[:3] {
		if _, err := dist.Run(r.config(v, 1)); err != nil {
			e.op(fmt.Errorf("dist %s warm-up: %w", v, err))
		}
	}
	e.tr.end(sp)
	r.setupS = append(r.setupS, time.Since(t0).Seconds())
	for _, v := range distVariants {
		r.rep(e, parent, round, v, traced)
	}
}

func runDist(e *env) metrics {
	r := newDistRun(e)
	e.rounds(e.seconds, 1, func(round int) { r.round(e, -1, round, false) })
	reportTail(e.workload, "dist step (rep mean)", r.stepMs)
	return metrics{
		"grind_us_zc":        median(r.grind["primary"]),
		"omp_grind_us_zc":    median(r.grind["omp"]),
		"serial_grind_us_zc": median(r.grind["serial"]),
		"step_ms_p90":        percentile(r.stepMs, 90),
		"setup_s":            median(r.setupS),
	}
}

// layer fills in the comm and dist metrics from the primary reps.
func (r *distRun) layer(e *env, m metrics) {
	for _, v := range [][]float64{r.msgs, r.bytes} {
		for _, x := range v {
			if x != v[0] {
				e.op(fmt.Errorf("dist message count varies between reps: %v vs %v", x, v[0]))
			}
		}
	}
	m["comm.msgs_per_step"] = r.msgs[0]
	m["comm.bytes_per_step"] = r.bytes[0]
	m["comm.wait_share"] = float64(r.wait) / float64(r.stepSum)
	m["comm.wait_ghost_share"] = float64(r.ghost) / float64(r.stepSum)
	m["comm.wait_reduce_share"] = float64(r.reduce) / float64(r.stepSum)
	m["dist.rank_imbalance"] = median(r.imbal)
}
