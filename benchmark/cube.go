package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"lulesh/internal/core"
	"lulesh/internal/domain"
)

// cubeShape is one single-domain problem and how long each backend runs
// it per rep. Every rep starts from a fresh domain and a fresh backend,
// runs warm untimed cycles and then cycles[variant] timed ones, so the
// final energy of a rep depends on the shape and the cycle count alone
// and can be committed as a golden.
type cubeShape struct {
	scenario string
	size     int
	warm     int
	cycles   map[string]int // by variant; the 1-worker variants run as long as serial
}

var (
	sedov45 = cubeShape{scenario: "sedov", size: 45, warm: 2,
		cycles: map[string]int{"serial": 5, "omp": 8, "task": 16}}
	multimat20 = cubeShape{scenario: "multimat", size: 20, warm: 2,
		cycles: map[string]int{"serial": 20, "omp": 8, "task": 80}}
	// The single-domain problems behind the other two workloads, used by
	// their traced runs to place the kernels/amt/omp metrics: the cube
	// nearest dist2slab's 36 864 zones, and serveburst's middle job size.
	sedov33 = cubeShape{scenario: "sedov", size: 33, warm: 2,
		cycles: map[string]int{"serial": 8, "omp": 12, "task": 12}}
	sedov10 = cubeShape{scenario: "sedov", size: 10, warm: 2,
		cycles: map[string]int{"serial": 100, "omp": 100, "task": 100}}
)

// Variants of a cube rep. omp1 and task1 are the 1-worker runs the traced
// ladder subtracts from; they never run in the timed, untraced run.
var (
	timedVariants  = []string{"serial", "omp", "task"}
	ladderVariants = []string{"serial", "omp1", "omp", "task1", "task"}
)

// cut is the smoke path's version of a shape.
func (s cubeShape) cut() cubeShape {
	return cubeShape{scenario: s.scenario, size: min(s.size, 12), warm: 1,
		cycles: map[string]int{"serial": 2, "omp": 2, "task": 2}}
}

func (s cubeShape) cyclesOf(variant string) int {
	if variant == "omp1" || variant == "task1" {
		variant = "serial"
	}
	return s.cycles[variant]
}

func (s cubeShape) zones() float64 { return float64(s.size * s.size * s.size) }

func (s cubeShape) build() (*domain.Domain, error) {
	spec, err := domain.ParseScenarioSpec(s.scenario)
	if err != nil {
		return nil, err
	}
	return domain.BuildScenarioCube(spec, domain.DefaultConfig(s.size))
}

func cubeKey(scenario string, size, cycles int) string {
	return fmt.Sprintf("cube|%s|s%d|c%d", scenario, size, cycles)
}

func newBackend(variant string, d *domain.Domain, size int) core.Backend {
	switch variant {
	case "serial":
		return core.NewBackendSerial(d)
	case "omp":
		return core.NewBackendOMP(d, workers)
	case "omp1":
		return core.NewBackendOMP(d, 1)
	case "task1":
		return core.NewBackendTask(d, core.DefaultOptions(size, 1))
	default:
		return core.NewBackendTask(d, core.DefaultOptions(size, workers))
	}
}

// cubeRun accumulates the samples of one shape over rounds.
type cubeRun struct {
	shape   cubeShape
	stepMs  map[string][]float64 // per-cycle wall by variant, tracing off
	traced  map[string][]float64 // the same, from rounds with tracing on
	util    map[string][]float64 // core.Result.Utilization per rep
	buildMs []float64
	setupS  []float64 // per round: build + backend + warm-up, all variants
	cycles  int       // cycle count the last task rep reached
}

func newCubeRun(shape cubeShape) *cubeRun {
	return &cubeRun{shape: shape, stepMs: map[string][]float64{},
		traced: map[string][]float64{}, util: map[string][]float64{}}
}

// rep runs one backend from a fresh domain and returns its set-up time.
// Each timed cycle and the final golden check count as one operation.
func (c *cubeRun) rep(e *env, parent, round int, variant string, traced bool) time.Duration {
	s := c.shape
	repSpan := e.tr.start(parent, "rep:"+variant, "core", round, 0)
	defer e.tr.end(repSpan)

	// Collect the previous rep's domain and give its pages back before
	// building the next, so the resident set holds one rep at a time
	// whatever the allocator reuses. The timed cycles allocate nothing, so
	// no collection runs alongside them.
	t0 := time.Now()
	sp := e.tr.start(repSpan, "gc", "bench", round, 0)
	debug.FreeOSMemory()
	e.tr.end(sp)
	sp = e.tr.start(repSpan, "build", "domain", round, 0)
	tb := time.Now()
	d, err := s.build()
	e.tr.end(sp)
	if err != nil {
		e.op(fmt.Errorf("%s build: %w", variant, err))
		return 0
	}
	c.buildMs = append(c.buildMs, float64(time.Since(tb))/1e6)

	sp = e.tr.start(repSpan, "backend-new", layerOf(variant), round, 0)
	b := newBackend(variant, d, s.size)
	e.tr.end(sp)
	defer b.Close()

	sp = e.tr.start(repSpan, "warm-up", layerOf(variant), round, 0)
	_, err = core.Run(d, b, core.RunConfig{MaxIterations: s.warm})
	e.tr.end(sp)
	if err != nil {
		e.op(fmt.Errorf("%s warm-up: %w", variant, err))
		return 0
	}
	setup := time.Since(t0)

	want := s.warm + s.cyclesOf(variant)
	dst := c.stepMs
	if traced {
		dst = c.traced
	}
	last := time.Now()
	cyc := e.tr.start(repSpan, "cycle", layerOf(variant), round, 0)
	res, err := core.Run(d, b, core.RunConfig{
		MaxIterations: want,
		Progress: func(int, float64, float64) {
			now := time.Now()
			e.tr.end(cyc)
			dst[variant] = append(dst[variant], float64(now.Sub(last))/1e6)
			e.op(nil)
			last = now
			cyc = e.tr.start(repSpan, "cycle", layerOf(variant), round, 0)
		},
	})
	e.tr.end(cyc)
	switch {
	case err != nil:
		e.op(fmt.Errorf("%s: %w", variant, err))
	case res.Iterations != want:
		e.op(fmt.Errorf("%s stopped at cycle %d, want %d", variant, res.Iterations, want))
	default:
		e.op(e.gold.check(cubeKey(s.scenario, s.size, want), res.OriginEnergy))
	}
	if res.HasUtil {
		c.util[variant] = append(c.util[variant], res.Utilization)
	}
	if variant == "task" {
		c.cycles = res.Iterations
	}
	return setup
}

func layerOf(variant string) string {
	switch variant {
	case "serial":
		return "kernels"
	case "omp", "omp1":
		return "omp"
	default:
		return "amt"
	}
}

// round runs every variant once, in order, so that drift over the run
// hits all of them alike.
func (c *cubeRun) round(e *env, parent, round int, variants []string, traced bool) {
	var setup time.Duration
	for _, v := range variants {
		setup += c.rep(e, parent, round, v, traced)
	}
	c.setupS = append(c.setupS, setup.Seconds())
}

// grind is the median cycle of a variant in µs per zone.
func (c *cubeRun) grind(variant string) float64 {
	return median(c.stepMs[variant]) * 1e3 / c.shape.zones()
}

// runCube is the untraced run of a single-domain workload.
func runCube(e *env, shape cubeShape) metrics {
	c := newCubeRun(shape)
	e.rounds(e.seconds, 1, func(round int) { c.round(e, -1, round, timedVariants, false) })
	reportTail(e.workload, "task cycle", c.stepMs["task"])
	return metrics{
		"grind_us_zc":        c.grind("task"),
		"omp_grind_us_zc":    c.grind("omp"),
		"serial_grind_us_zc": c.grind("serial"),
		"step_ms_p90":        percentile(c.stepMs["task"], 90),
		"setup_s":            median(c.setupS),
	}
}

// ladder fills in the kernels, amt, omp and core metrics from the five
// variants of c, all in ns per zone-cycle so that the terms add up:
// W x task@W = kernels + dispatch + parallel loss.
func (c *cubeRun) ladder(m metrics) {
	ns := func(variant string) float64 { return c.grind(variant) * 1e3 }
	w := float64(workers)
	m["kernels.step_ns_zc"] = ns("serial")
	m["amt.dispatch_ns_zc"] = ns("task1") - ns("serial")
	m["amt.parallel_loss_ns_zc"] = w*ns("task") - ns("task1")
	m["amt.utilization"] = median(c.util["task"])
	m["omp.forkjoin_ns_zc"] = ns("omp1") - ns("serial")
	m["omp.parallel_loss_ns_zc"] = w*ns("omp") - ns("omp1")
	m["omp.utilization"] = median(c.util["omp"])
	m["core.task_speedup_vs_omp"] = ns("omp") / ns("task")
	m["core.parallel_efficiency"] = ns("serial") / (w * ns("task"))
	m["core.cycles"] = float64(c.cycles)
	m["domain.build_ms"] = median(c.buildMs)
	fmt.Printf("%s s=%d: %d x task %.1f = kernels %.1f + amt dispatch %.1f + amt parallel loss %.1f ns/zone/cycle\n",
		c.shape.scenario, c.shape.size, workers, ns("task"),
		m["kernels.step_ns_zc"], m["amt.dispatch_ns_zc"], m["amt.parallel_loss_ns_zc"])
	fmt.Printf("%s s=%d: %d x omp  %.1f = kernels %.1f + omp fork-join %.1f + omp parallel loss %.1f ns/zone/cycle\n",
		c.shape.scenario, c.shape.size, workers, ns("omp"),
		m["kernels.step_ns_zc"], m["omp.forkjoin_ns_zc"], m["omp.parallel_loss_ns_zc"])
}

// stateBytes measures what a shape allocates, from the runtime's own
// allocation counter: the domain alone, and the domain plus a serial
// backend after its first cycles (steady-state cycles allocate nothing).
// The collector is off meanwhile, because a collection cycle allocates a
// little itself, and it takes the smaller of two tries, so that a stray
// allocation elsewhere in the process does not count.
func stateBytes(shape cubeShape) (domainBytes, stateBytes float64, err error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	try := func() (uint64, uint64, error) {
		var m0, m1, m2 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		d, err := shape.build()
		if err != nil {
			return 0, 0, err
		}
		runtime.ReadMemStats(&m1)
		b := core.NewBackendSerial(d)
		defer b.Close()
		if _, err := core.Run(d, b, core.RunConfig{MaxIterations: shape.warm}); err != nil {
			return 0, 0, err
		}
		runtime.ReadMemStats(&m2)
		return m1.TotalAlloc - m0.TotalAlloc, m2.TotalAlloc - m0.TotalAlloc, nil
	}
	d1, s1, err := try()
	if err != nil {
		return 0, 0, err
	}
	d2, s2, err := try()
	return float64(min(d1, d2)), float64(min(s1, s2)), err
}
