package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"lulesh/internal/core"
	"lulesh/internal/perf"
	"lulesh/internal/serve"
)

// jobSpec is the client's side of POST /jobs: only the fields this
// workload sets.
type jobSpec struct {
	Scenario   string  `json:"scenario"`
	Size       int     `json:"size"`
	Iterations int     `json:"iterations"`
	Tenant     string  `json:"tenant"`
	Weight     float64 `json:"weight"`
}

func (s jobSpec) zoneCycles() float64 { return float64(s.Size * s.Size * s.Size * s.Iterations) }

func (s jobSpec) key() string { return cubeKey(s.Scenario, s.Size, s.Iterations) }

// jobStatus is what the client reads of GET /jobs/{id}.
type jobStatus struct {
	ID          string  `json:"id"`
	State       string  `json:"state"`
	QueueWaitUs float64 `json:"queue_wait_us"`
	ElapsedSec  float64 `json:"elapsed_sec"`
}

const (
	burstSize = 8
	jobCycles = 20
	pollEvery = 2 * time.Millisecond
)

var (
	jobScenarios = []string{"sedov", "piston", "multimat:regions=8"}
	jobSizes     = []int{8, 10, 12}
)

// jobMix deals jobs from a deck that holds every (scenario, size, tenant)
// combination once, reshuffled from the seed each time it runs out. Every
// seed therefore submits the same work in the long run, in another order.
type jobMix struct {
	rng    *rand.Rand
	cycles int
	deck   []jobSpec
}

func newJobMix(seed int64, cycles int) *jobMix {
	return &jobMix{rng: rand.New(rand.NewSource(seed)), cycles: cycles}
}

func (m *jobMix) next() jobSpec {
	if len(m.deck) == 0 {
		for _, sc := range jobScenarios {
			for _, size := range jobSizes {
				m.deck = append(m.deck,
					jobSpec{Scenario: sc, Size: size, Iterations: m.cycles, Tenant: "a", Weight: 1},
					jobSpec{Scenario: sc, Size: size, Iterations: m.cycles, Tenant: "b", Weight: 3})
			}
		}
		m.rng.Shuffle(len(m.deck), func(i, j int) { m.deck[i], m.deck[j] = m.deck[j], m.deck[i] })
	}
	s := m.deck[len(m.deck)-1]
	m.deck = m.deck[:len(m.deck)-1]
	return s
}

// runDirect runs one job's work without the service: build, backend,
// cycles. It is the reference for the served result and the baseline the
// service is compared with.
func runDirect(s jobSpec, variant string) (core.Result, error) {
	d, err := cubeShape{scenario: s.Scenario, size: s.Size}.build()
	if err != nil {
		return core.Result{}, err
	}
	b := newBackend(variant, d, s.Size)
	defer b.Close()
	return core.Run(d, b, core.RunConfig{MaxIterations: s.Iterations})
}

// burstRun is one luleshd manager behind an HTTP test server, two
// closed-loop clients, and the samples they take.
type burstRun struct {
	cycles int
	slice  time.Duration // of bursts per round; a client finishes the burst it is in
	dir    string
	mgr    *serve.Manager
	srv    *httptest.Server
	ref    map[string]uint64 // job key -> origin energy bits of the serial reference
	mixes  [workers]*jobMix

	mu         sync.Mutex
	latMs      []float64 // POST sent -> terminal state seen
	submitMs   []float64
	queueMs    []float64
	runMs      []float64
	overheadMs []float64
	fetchMs    []float64
	n429       int
	zc, wall   float64              // validated zone-cycles and wall seconds, tracing off
	zcT, wallT float64              // the same, tracing on
	direct     map[string][]float64 // by variant, per round: µs per zone-cycle without the service
	setupS     []float64
}

func newBurstRun(e *env) *burstRun {
	r := &burstRun{cycles: jobCycles, slice: 3 * time.Second, direct: map[string][]float64{},
		dir: filepath.Join("out", fmt.Sprintf("serve-%d", os.Getpid()))}
	if e.smoke {
		r.cycles, r.slice = 3, 0
	}
	for c := range r.mixes {
		r.mixes[c] = newJobMix(e.seed*int64(workers+1)+int64(c), r.cycles)
	}
	return r
}

// setUp computes the serial reference of every distinct job, starts the
// manager and the server, and warms both with one burst per client.
func (r *burstRun) setUp(e *env) error {
	t0 := time.Now()
	r.ref = map[string]uint64{}
	for _, sc := range jobScenarios {
		for _, size := range jobSizes {
			s := jobSpec{Scenario: sc, Size: size, Iterations: r.cycles}
			res, err := runDirect(s, "serial")
			if err != nil {
				return fmt.Errorf("reference %s: %w", s.key(), err)
			}
			if res.Iterations != r.cycles {
				return fmt.Errorf("reference %s stopped at cycle %d", s.key(), res.Iterations)
			}
			if err := e.gold.check(s.key(), res.OriginEnergy); err != nil {
				return err
			}
			r.ref[s.key()] = math.Float64bits(res.OriginEnergy)
		}
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	mgr, err := serve.NewManager(serve.Config{Workers: workers, ResultsDir: r.dir})
	if err != nil {
		return err
	}
	r.mgr = mgr
	r.srv = httptest.NewServer(mgr.Handler())
	// The warm-up bursts are checked like any other but leave no samples.
	r.burstAll(e, -1, 0, false, time.Now())
	r.setupS = append(r.setupS, time.Since(t0).Seconds())
	return nil
}

func (r *burstRun) tearDown() error {
	r.srv.Close()
	err := r.mgr.Close()
	if rerr := os.RemoveAll(r.dir); err == nil {
		err = rerr
	}
	return err
}

// burstAll runs the clients, one goroutine and one keep-alive connection
// each, until deadline; a client finishes the burst it is in. It returns
// the zone-cycles of the validated jobs and the wall seconds they took;
// keep says whether the jobs' latency samples are kept.
func (r *burstRun) burstAll(e *env, parent, round int, keep bool, deadline time.Time) (zoneCycles, wall float64) {
	t0 := time.Now()
	var wg sync.WaitGroup
	var zc [workers]float64
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			for {
				zc[c] += r.burst(e, client, parent, round, c+1, keep)
				if !time.Now().Before(deadline) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, z := range zc {
		zoneCycles += z
	}
	return zoneCycles, time.Since(t0).Seconds()
}

type pending struct {
	spec     jobSpec
	id       string
	sent     time.Time
	submitMs float64
	status   jobStatus
	latMs    float64
}

// burst posts burstSize jobs, polls until all are terminal, then fetches
// and validates every result. Each job is one operation. It returns the
// zone-cycles of the validated jobs.
func (r *burstRun) burst(e *env, client *http.Client, parent, round, lane int, keep bool) float64 {
	mix := r.mixes[lane-1]
	bs := e.tr.start(parent, "burst", "serve", round, lane)
	defer e.tr.end(bs)

	var jobs []*pending
	for i := 0; i < burstSize; i++ {
		p := &pending{spec: mix.next(), sent: time.Now()}
		body, _ := json.Marshal(p.spec)
		sp := e.tr.start(bs, "POST", "serve", round, lane)
		code, err := call(client, http.MethodPost, r.srv.URL+"/jobs", body, &p.status)
		e.tr.end(sp)
		p.submitMs = float64(time.Since(p.sent)) / 1e6
		if err != nil || code != http.StatusAccepted {
			if code == http.StatusTooManyRequests {
				r.mu.Lock()
				r.n429++
				r.mu.Unlock()
			}
			e.op(fmt.Errorf("POST %s: status %d: %v", p.spec.key(), code, err))
			continue
		}
		p.id = p.status.ID
		jobs = append(jobs, p)
	}

	sp := e.tr.start(bs, "poll", "serve", round, lane)
	for open := len(jobs); open > 0; {
		for _, p := range jobs {
			if p.latMs > 0 {
				continue
			}
			code, err := call(client, http.MethodGet, r.srv.URL+"/jobs/"+p.id, nil, &p.status)
			if err != nil || code != http.StatusOK {
				p.status.State = fmt.Sprintf("status %d: %v", code, err)
			}
			if st := p.status.State; st != "queued" && st != "running" {
				p.latMs = float64(time.Since(p.sent)) / 1e6
				open--
			}
		}
		if open > 0 {
			time.Sleep(pollEvery)
		}
	}
	e.tr.end(sp)

	var zc float64
	for _, p := range jobs {
		t0 := time.Now()
		sp := e.tr.start(bs, "result-fetch", "serve", round, lane)
		err := r.validate(client, p)
		e.tr.end(sp)
		e.op(err)
		if err != nil {
			continue
		}
		zc += p.spec.zoneCycles()
		if !keep {
			continue
		}
		queue, run := p.status.QueueWaitUs/1e3, p.status.ElapsedSec*1e3
		r.mu.Lock()
		r.latMs = append(r.latMs, p.latMs)
		r.submitMs = append(r.submitMs, p.submitMs)
		r.queueMs = append(r.queueMs, queue)
		r.runMs = append(r.runMs, run)
		r.overheadMs = append(r.overheadMs, p.latMs-queue-run)
		r.fetchMs = append(r.fetchMs, float64(time.Since(t0))/1e6)
		r.mu.Unlock()
	}
	return zc
}

// validate fetches a job's result and checks it against the job's
// identity and the serial reference of its spec.
func (r *burstRun) validate(client *http.Client, p *pending) error {
	if p.status.State != "done" {
		return fmt.Errorf("job %s (%s) ended %s", p.id, p.spec.key(), p.status.State)
	}
	var rec perf.BenchRecord
	code, err := call(client, http.MethodGet, r.srv.URL+"/jobs/"+p.id+"/result", nil, &rec)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("result of job %s: status %d: %v", p.id, code, err)
	}
	if err := rec.Validate(); err != nil {
		return fmt.Errorf("result of job %s: %w", p.id, err)
	}
	got, ok := rec.Counters["origin_energy"]
	switch {
	case rec.JobID != p.id:
		return fmt.Errorf("result of job %s carries job_id %q", p.id, rec.JobID)
	case rec.Iterations != p.spec.Iterations:
		return fmt.Errorf("job %s stopped at cycle %d, want %d", p.id, rec.Iterations, p.spec.Iterations)
	case !ok || math.Float64bits(got) != r.ref[p.spec.key()]:
		return fmt.Errorf("job %s (%s): origin energy %x, serial reference %x",
			p.id, p.spec.key(), math.Float64bits(got), r.ref[p.spec.key()])
	}
	return nil
}

// call makes one request and decodes a JSON reply into out.
func call(client *http.Client, method, url string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, fmt.Errorf("%s", bytes.TrimSpace(buf))
	}
	return resp.StatusCode, json.Unmarshal(buf, out)
}

// directJobs runs every distinct job once without the service, on one
// thread and on a fork-join team: the same work, no daemon.
func (r *burstRun) directJobs(e *env, parent, round int) {
	for _, variant := range []string{"serial", "omp"} {
		sp := e.tr.start(parent, "direct:"+variant, layerOf(variant), round, 0)
		t0 := time.Now()
		var zc float64
		for _, sc := range jobScenarios {
			for _, size := range jobSizes {
				s := jobSpec{Scenario: sc, Size: size, Iterations: r.cycles}
				res, err := runDirect(s, variant)
				if err == nil && math.Float64bits(res.OriginEnergy) != r.ref[s.key()] {
					err = fmt.Errorf("direct %s %s differs from the serial reference", variant, s.key())
				}
				e.op(err)
				zc += s.zoneCycles()
			}
		}
		r.direct[variant] = append(r.direct[variant], time.Since(t0).Seconds()*1e6/zc)
		e.tr.end(sp)
	}
}

func (r *burstRun) round(e *env, parent, round int, traced bool) {
	// Starting every round from a collected heap, its free pages given
	// back, makes the peak resident set repeat; the daemon's own
	// collections during the bursts stay.
	debug.FreeOSMemory()
	r.directJobs(e, parent, round)
	// Samples are kept only from rounds with tracing off, like everywhere.
	zc, wall := r.burstAll(e, parent, round, !traced, time.Now().Add(r.slice))
	if traced {
		r.zcT, r.wallT = r.zcT+zc, r.wallT+wall
	} else {
		r.zc, r.wall = r.zc+zc, r.wall+wall
	}
}

func runBurst(e *env) (metrics, error) {
	r := newBurstRun(e)
	// Set up three times and report the median; the last one stays up.
	for i := 0; i < 3; i++ {
		if r.mgr != nil {
			if err := r.tearDown(); err != nil {
				return nil, err
			}
		}
		if err := r.setUp(e); err != nil {
			return nil, err
		}
	}
	e.rounds(e.seconds, 1, func(round int) { r.round(e, -1, round, false) })
	if err := r.tearDown(); err != nil {
		return nil, err
	}
	reportTail(e.workload, "job latency", r.latMs)
	return metrics{
		"grind_us_zc":        r.wall * 1e6 / r.zc,
		"omp_grind_us_zc":    median(r.direct["omp"]),
		"serial_grind_us_zc": median(r.direct["serial"]),
		"step_ms_p90":        percentile(r.latMs, 90),
		"setup_s":            median(r.setupS),
	}, nil
}

// layer fills in the serve metrics.
func (r *burstRun) layer(m metrics) {
	m["serve.jobs_per_s"] = float64(len(r.latMs)) / r.wall
	m["serve.job_latency_ms_p50"] = median(r.latMs)
	m["serve.submit_ms_p50"] = median(r.submitMs)
	m["serve.queue_wait_ms_p50"] = median(r.queueMs)
	m["serve.queue_wait_ms_p95"] = percentile(r.queueMs, 95)
	m["serve.run_ms_p50"] = median(r.runMs)
	m["serve.overhead_ms_p50"] = median(r.overheadMs)
	m["serve.result_fetch_ms_p50"] = median(r.fetchMs)
	m["serve.http_429"] = float64(r.n429)
	// The share of the pool's time the jobs' own arithmetic needs: serial
	// cost of the served zone-cycles over wall x W.
	m["serve.pool_share"] = median(r.direct["serial"]) / (float64(workers) * r.wall * 1e6 / r.zc)
}
