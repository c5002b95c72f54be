package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lulesh/internal/amt"
	"lulesh/internal/checkpoint"
	"lulesh/internal/comm"
	"lulesh/internal/domain"
	"lulesh/internal/omp"
)

// The probes time each layer's public entry points on their own, in the
// traced run only. None of them depends on the workload.

// probeSizes are the iteration counts of the probes.
type probeSizes struct {
	tasks, links, regions, trips int
	spinUs                       float64 // µs of spinning per worker at every METG grain
}

var (
	fullProbes  = probeSizes{tasks: 100_000, links: 100_000, regions: 20_000, trips: 2000, spinUs: 10_000}
	smokeProbes = probeSizes{tasks: 2000, links: 2000, regions: 500, trips: 50, spinUs: 200}
)

// probeTriad is the STREAM triad a[i] = b[i] + s*c[i] on W goroutines,
// best of three passes. Each array is at least four times the last-level
// cache, capped at 256 MiB so the probe fits a small box.
func probeTriad(llc int64) (gbps float64) {
	bytesPer := min(4*llc, 256<<20)
	n := int(bytesPer / 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	for pass := 0; pass < 3; pass++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*n/workers, (w+1)*n/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				as, bs, cs := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range as {
					as[i] = bs[i] + 3*cs[i]
				}
			}()
		}
		wg.Wait()
		gbps = max(gbps, 3*float64(bytesPer)/time.Since(t0).Seconds()/1e9)
	}
	fmt.Printf("triad: 3 arrays of %d MiB each, last-level cache %d MiB, %.2f GB/s\n",
		bytesPer>>20, llc>>20, gbps)
	return gbps
}

var spinSink atomic.Uint64

// spin is a dependent multiply-add chain the compiler cannot shorten.
func spin(iters int) {
	x := uint64(iters)
	for i := 0; i < iters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	if x == 42 {
		spinSink.Store(x)
	}
}

// spinPerUs calibrates spin on one thread.
func spinPerUs() float64 {
	const iters = 2_000_000
	best := time.Duration(1 << 62)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		spin(iters)
		best = min(best, time.Since(t0))
	}
	return iters / (float64(best) / 1e3)
}

// metgGrains are the Task Bench grains in µs: 0.25 to 256, doubling.
func metgGrains() []float64 {
	var g []float64
	for x := 0.25; x <= 256; x *= 2 {
		g = append(g, x)
	}
	return g
}

// metg50 runs the no-dependency Task Bench pattern at every grain and
// returns the smallest grain that keeps half of the best rate. run
// executes n tasks of iters spins each and returns when all are done.
func metg50(perUs float64, tasksFor func(grainUs float64) int, run func(n, iters int)) float64 {
	grains := metgGrains()
	rate := make([]float64, len(grains))
	var peak float64
	for i, g := range grains {
		iters := max(1, int(g*perUs))
		n := tasksFor(g)
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			run(n, iters)
			rate[i] = max(rate[i], float64(n)*float64(iters)/time.Since(t0).Seconds())
		}
		peak = max(peak, rate[i])
	}
	eff := make([]float64, len(grains))
	for i := range rate {
		eff[i] = rate[i] / peak
	}
	return metg(grains, eff, 0.5)
}

// probeAMT measures a bare scheduler: the cost of an empty task, of one
// link of a continuation chain, and METG(50%).
func probeAMT(m metrics, sz probeSizes) {
	perUs := spinPerUs()
	s := amt.NewScheduler(amt.WithWorkers(workers))
	defer s.Close()

	best := time.Duration(1 << 62)
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		amt.ForEachBlock(s, 0, sz.tasks, 1, func(lo, hi int) {}).Get()
		best = min(best, time.Since(t0))
	}
	m["amt.ns_per_task"] = float64(best) / float64(sz.tasks)

	best = time.Duration(1 << 62)
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		f := amt.Run(s, func() {})
		for i := 0; i < sz.links; i++ {
			f = amt.Then(f, func(amt.Unit) amt.Unit { return amt.Unit{} })
		}
		f.Get()
		best = min(best, time.Since(t0))
	}
	m["amt.chain_ns_per_link"] = float64(best) / float64(sz.links)

	tasksFor := func(g float64) int { return min(sz.tasks, max(64, int(workers*sz.spinUs/g))) }
	m["amt.metg50_us"] = metg50(perUs, tasksFor, func(n, iters int) {
		amt.ForEachBlock(s, 0, n, 1, func(lo, hi int) { spin(iters) }).Get()
	})
}

// probeOMP measures a bare fork-join team: an empty parallel region, and
// METG(50%) with one task per thread per region, so every task pays the
// barrier.
func probeOMP(m metrics, sz probeSizes) {
	perUs := spinPerUs()
	p := omp.NewPool(workers)
	defer p.Close()

	best := time.Duration(1 << 62)
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := 0; i < sz.regions; i++ {
			p.ParallelForBlock(workers, func(lo, hi int) {})
		}
		best = min(best, time.Since(t0))
	}
	m["omp.ns_per_region"] = float64(best) / float64(sz.regions)

	tasksFor := func(g float64) int { return workers * min(sz.regions, max(32, int(sz.spinUs/g))) }
	m["omp.metg50_us"] = metg50(perUs, tasksFor, func(n, iters int) {
		for i := 0; i < n/workers; i++ {
			p.ParallelForBlock(workers, func(lo, hi int) { spin(iters) })
		}
	})
}

// probeComm measures the in-process fabric between two endpoints: one
// message of the dist2slab boundary size (three planes of 49 x 49 nodes),
// and one dt allreduce.
func probeComm(m metrics, sz probeSizes) error {
	trips := sz.trips
	cl := comm.NewCluster(2)
	e0, e1 := cl.Endpoint(0), cl.Endpoint(1)
	slab := make([]float64, 3*(distNx+1)*(distNx+1))

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < trips; i++ {
			e1.Send(0, comm.TagForceX, e1.Recv(0, comm.TagForceX))
		}
	}()
	t0 := time.Now()
	for i := 0; i < trips; i++ {
		e0.Send(1, comm.TagForceX, slab)
		e0.Recv(1, comm.TagForceX)
	}
	<-done
	m["comm.pingpong_us"] = float64(time.Since(t0)) / 1e3 / float64(2*trips)

	errs := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < trips && err == nil; i++ {
			_, err = e1.AllReduceMin([]float64{2, 1})
		}
		errs <- err
	}()
	t0 = time.Now()
	var err error
	for i := 0; i < trips && err == nil; i++ {
		_, err = e0.AllReduceMin([]float64{1, 2})
	}
	if err != nil {
		return fmt.Errorf("allreduce probe: %w", err)
	}
	if err := <-errs; err != nil {
		return fmt.Errorf("allreduce probe: %w", err)
	}
	m["comm.allreduce_us"] = float64(time.Since(t0)) / 1e3 / float64(trips)
	return nil
}

// probeCheckpoint saves and loads the sedov45 domain through memory,
// best of three.
func probeCheckpoint(m metrics, shape cubeShape) error {
	d, err := shape.build()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	var save, load time.Duration = 1 << 62, 1 << 62
	for rep := 0; rep < 3; rep++ {
		buf.Reset()
		t0 := time.Now()
		if err := checkpoint.SaveCube(&buf, d, domain.DefaultConfig(shape.size)); err != nil {
			return fmt.Errorf("checkpoint save: %w", err)
		}
		save = min(save, time.Since(t0))
		t0 = time.Now()
		if _, err := checkpoint.Load(bytes.NewReader(buf.Bytes())); err != nil {
			return fmt.Errorf("checkpoint load: %w", err)
		}
		load = min(load, time.Since(t0))
	}
	mb := float64(buf.Len()) / 1e6
	m["checkpoint.save_mbps"] = mb / save.Seconds()
	m["checkpoint.load_mbps"] = mb / load.Seconds()
	m["checkpoint.bytes_per_zone"] = float64(buf.Len()) / shape.zones()
	return nil
}
