// Command benchmark measures the stack end to end and layer by layer.
//
//	go run -C benchmark . --workload sedov45 --seed 1 --seconds 20 --trace 0
//
// runs one workload and prints its metrics, the last line of standard
// output being one JSON object; --trace 1 gives the per-layer metrics
// instead of the end-to-end ones. Without --workload it runs every
// workload both ways, each in a child process, and prints one table;
// -aa runs the untraced set twice and compares. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"
)

// env is what a workload needs from the run it is part of.
type env struct {
	workload string
	seed     int64
	seconds  float64
	smoke    bool
	tr       *tracer // nil in the untraced run
	gold     *goldens

	mu        sync.Mutex
	attempted int
	failed    int
}

// op counts one attempted operation, failed when err is not nil.
func (e *env) op(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attempted++
	if err != nil {
		e.failed++
		if e.failed <= 10 {
			fmt.Fprintln(os.Stderr, "FAILED:", err)
		}
	}
}

// rounds calls fn until seconds have passed, and at least min times; the
// smoke path stops at min.
func (e *env) rounds(seconds float64, min int, fn func(round int)) {
	t0 := time.Now()
	for round := 0; ; round++ {
		if round >= min && (e.smoke || time.Since(t0).Seconds() >= seconds) {
			return
		}
		fn(round)
	}
}

// result is the last line of a single-workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload (default: all of them, each in a child process)")
		seed     = flag.Int64("seed", 1, "seed of the serveburst job order; recorded with every result")
		seconds  = flag.Float64("seconds", 20, "seconds each run measures for")
		trace    = flag.Int("trace", 0, "1 = the traced run: per-layer metrics, spans in out/trace-<workload>.json")
		smoke    = flag.Bool("smoke", false, "cut every workload to a few cycles and small meshes; checks the plumbing, not the numbers")
		aa       = flag.Bool("aa", false, "run the untraced set twice and compare every metric with its bound")
		goldens  = flag.Bool("write-goldens", false, "recompute goldens.json with the serial backend and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(2, "unexpected argument %q", flag.Arg(0))
	}
	if runtime.NumCPU() < workers {
		fatal(2, "the benchmark needs %d CPUs, this machine has %d", workers, runtime.NumCPU())
	}
	runtime.GOMAXPROCS(workers)
	if err := os.MkdirAll("out", 0o755); err != nil {
		fatal(1, "%v", err)
	}

	switch {
	case *goldens:
		if err := writeGoldens(); err != nil {
			fatal(1, "%v", err)
		}
	case *workload == "":
		os.Exit(runSuite(*seed, *seconds, *smoke, *aa))
	default:
		os.Exit(runOne(*workload, *seed, *seconds, *smoke, *trace == 1))
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

// runOne runs one workload in this process and prints its result line.
func runOne(workload string, seed int64, seconds float64, smoke, traced bool) int {
	if !slices.Contains(workloadNames, workload) {
		fatal(2, "unknown workload %q, want one of %v", workload, workloadNames)
	}
	gold, err := loadGoldens(!smoke)
	if err != nil {
		fatal(1, "%v", err)
	}
	fp := takeFingerprint(seed)
	e := &env{workload: workload, seed: seed, seconds: seconds, smoke: smoke, gold: gold}

	decls, run, mode := endToEnd, runUntraced, "untraced"
	if traced {
		decls, run, mode = perLayer, runTraced, "traced"
	}
	m, err := run(e)
	if err != nil {
		fatal(1, "%s: %v", workload, err)
	}
	fp.LoadEnd = loadAvg1()

	res := result{Attempted: e.attempted, Failed: e.failed, Metrics: map[string]metricValue{}}
	res.Correct = e.failed == 0
	for _, d := range decls {
		v, ok := m[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fatal(1, "%s: metric %s has no finite value (%v)", workload, d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("%-12s %-28s %14.6g %s\n", workload, d.Name, v, d.Unit)
	}
	record := struct {
		Workload    string      `json:"workload"`
		Mode        string      `json:"mode"`
		Fingerprint fingerprint `json:"fingerprint"`
		Result      result      `json:"result"`
	}{workload, mode, fp, res}
	if err := writeJSON(filepath.Join("out", "run-"+workload+"-"+mode+".json"), record); err != nil {
		fatal(1, "%v", err)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d operations failed\n", workload, e.failed, e.attempted)
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// shape is s, or its cut version on the smoke path.
func (e *env) shape(s cubeShape) cubeShape {
	if e.smoke {
		return s.cut()
	}
	return s
}

// cubeShapeOf is the single-domain problem of e's workload.
func cubeShapeOf(e *env) cubeShape {
	return e.shape(map[string]cubeShape{"sedov45": sedov45, "multimat20": multimat20,
		"dist2slab": sedov33, "serveburst": sedov10}[e.workload])
}

// runUntraced measures the end-to-end metrics of e's workload.
func runUntraced(e *env) (metrics, error) {
	// The batch workloads collect between reps and nowhere else, so that
	// their peak resident set is one rep's allocation and repeats;
	// serveburst keeps the collector a daemon runs with.
	if e.workload != "serveburst" {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
	}
	var m metrics
	switch e.workload {
	case "dist2slab":
		m = runDist(e)
	case "serveburst":
		var err error
		if m, err = runBurst(e); err != nil {
			return nil, err
		}
	default:
		m = runCube(e, cubeShapeOf(e))
	}
	rss, err := peakRSSMiB()
	m["peak_rss_mb"] = rss
	return m, err
}

// runTraced measures the per-layer metrics. The workload's own section
// runs for 0.6 of e.seconds, in rounds that switch the spans off and on
// in turn, which gives the tracing overhead; the other two sections run
// one short round each with the spans on, and the probes follow.
func runTraced(e *env) (metrics, error) {
	m := metrics{}
	e.tr = newTracer(e.workload)
	section := func(own bool, fn func(parent, round int, traced bool)) {
		seconds, min := 0.0, 1
		if own {
			seconds, min = 0.6*e.seconds, 2
		}
		e.rounds(seconds, min, func(round int) {
			traced := own && round%2 == 1
			e.tr.setOn(traced || !own)
			root := e.tr.start(-1, "round", "bench", round, 0)
			fn(root, round, traced)
			e.tr.end(root)
		})
		e.tr.setOn(true)
	}

	c := newCubeRun(cubeShapeOf(e))
	// First, while nothing else in the process allocates.
	err := runProbes(e, probeStep{"state-bytes", "domain", func() error {
		dom, state, err := stateBytes(c.shape)
		m["domain.bytes_per_zone"] = dom / c.shape.zones()
		m["kernels.state_bytes_zone"] = state / c.shape.zones()
		return err
	}})
	if err != nil {
		return nil, err
	}
	ownCube := e.workload == "sedov45" || e.workload == "multimat20"
	section(ownCube, func(parent, round int, traced bool) {
		c.round(e, parent, round, ladderVariants, traced)
	})
	c.ladder(m)
	if ownCube {
		m["trace.overhead_frac"] = median(c.traced["task"])/median(c.stepMs["task"]) - 1
	}

	d := newDistRun(e)
	section(e.workload == "dist2slab", func(parent, round int, traced bool) {
		d.round(e, parent, round, traced)
	})
	d.layer(e, m)
	if e.workload == "dist2slab" {
		m["trace.overhead_frac"] = median(d.traced)/median(d.grind["primary"]) - 1
	}

	b := newBurstRun(e)
	if err := b.setUp(e); err != nil {
		return nil, err
	}
	ownBurst := e.workload == "serveburst"
	if !ownBurst {
		b.slice = time.Second
	}
	section(ownBurst, func(parent, round int, traced bool) {
		b.round(e, parent, round, traced)
	})
	if err := b.tearDown(); err != nil {
		return nil, err
	}
	b.layer(m)
	if ownBurst {
		m["trace.overhead_frac"] = (b.wallT/b.zcT)/(b.wall/b.zc) - 1
	}

	sz, llc := fullProbes, llcBytes()
	if e.smoke {
		sz, llc = smokeProbes, 1<<18
	}
	err = runProbes(e,
		probeStep{"triad", "machine", func() error {
			m["machine.triad_gbps"] = probeTriad(llc)
			// Bytes per ns is GB/s: the bandwidth a cycle would need if it
			// moved every byte of state once, over what the machine gives.
			m["kernels.min_traffic_frac"] = m["kernels.state_bytes_zone"] / m["kernels.step_ns_zc"] / m["machine.triad_gbps"]
			return nil
		}},
		probeStep{"amt", "amt", func() error { probeAMT(m, sz); return nil }},
		probeStep{"omp", "omp", func() error { probeOMP(m, sz); return nil }},
		probeStep{"comm", "comm", func() error { return probeComm(m, sz) }},
		probeStep{"checkpoint", "checkpoint", func() error { return probeCheckpoint(m, e.shape(sedov45)) }},
	)
	if err != nil {
		return nil, err
	}
	spans := e.tr.spans
	m["trace.span_coverage"] = coverage(spans)
	return m, writeChromeTrace(filepath.Join("out", "trace-"+e.workload+".json"), spans)
}

// probeStep is one probe and the layer its span belongs to.
type probeStep struct {
	name, layer string
	fn          func() error
}

// runProbes runs probes one after the other, one span each.
func runProbes(e *env, steps ...probeStep) error {
	root := e.tr.start(-1, "probes", "bench", 0, 0)
	defer e.tr.end(root)
	for _, s := range steps {
		sp := e.tr.start(root, "probe:"+s.name, s.layer, 0, 0)
		err := s.fn()
		e.tr.end(sp)
		if err != nil {
			return fmt.Errorf("probe %s: %w", s.name, err)
		}
	}
	return nil
}

// writeGoldens runs every checked computation once from no committed
// goldens and stores what it learned.
func writeGoldens() error {
	gold := &goldens{committed: map[string][]string{}, learned: map[string][]string{}}
	e := &env{seconds: 0, gold: gold}
	for _, shape := range []cubeShape{sedov45, multimat20, sedov33, sedov10} {
		newCubeRun(shape).round(e, -1, 0, ladderVariants, false)
	}
	newDistRun(e).round(e, -1, 0, false)
	b := newBurstRun(e)
	if err := b.setUp(e); err != nil {
		return err
	}
	if err := b.tearDown(); err != nil {
		return err
	}
	if e.failed > 0 {
		return fmt.Errorf("%d of %d operations failed while computing goldens", e.failed, e.attempted)
	}
	fmt.Printf("goldens.json: %d keys\n", len(gold.learned))
	return gold.write("goldens.json")
}
