// Package omp implements a fork-join parallel runtime modeled on OpenMP's
// execution of `#pragma omp parallel for` and parallel regions: a persistent
// team of threads, static loop scheduling, and a full synchronization
// barrier at the end of every loop or region.
//
// It is the comparator runtime for the paper's OpenMP reference
// implementation of LULESH: the cost model of that code — one static split
// plus one barrier per parallel loop — is exactly what this package
// reproduces, and the paper's ratio is only meaningful if each of those
// barriers costs what the hardware makes it cost and no more. So the pool
// is built around the cache line:
//
//   - Release. The master writes the region descriptor and the generation
//     word `gen` that publishes it into one 64-byte release block, once per
//     region. Workers poll `gen` with plain atomic loads for a fixed budget
//     (pollBudget, or one load when the team outnumbers GOMAXPROCS), then
//     yield with runtime.Gosched, and once they have waited spinWindow
//     park on a condition variable — OMP_WAIT_POLICY's active wait, then
//     passive wait. Back-to-back regions are picked up in the poll phase and never
//     pay a scheduler round trip.
//   - Join. Each thread owns one 64-byte slot holding its join flag and
//     its busy-time counter. A finishing thread stores the region's
//     generation into its flag (a sense-reversing barrier); the master
//     polls the flags with the same budget-then-yield loop. The slot array
//     carries a guard slot at each end, so no foreign object shares a line
//     with a live slot.
//   - Counters. The master's region wall time, region count, phase tag and
//     release stamp sit on a line of their own; the hooks every worker loads
//     (team size, slot array, clock epoch, observer, sink) sit on another
//     that no region writes. Padding keeps each group at least 64 bytes from
//     the next, whatever the allocator's alignment.
//   - Clock. Every stamp is one monotonic clock read (time.Since on a fixed
//     epoch). The master's release stamp doubles as its part start, and at
//     one thread the part end is the region end.
//
// Per-thread productive-time counters mirror the paper's manual
// instrumentation of each parallel region (Figure 11); the static-schedule
// entry points publish their body through the descriptor with no per-region
// heap allocation.
package omp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// cacheLine is the coherence granule the Pool layout is padded to.
const cacheLine = 64

// pollBudget is the number of plain atomic loads a waiting thread spends
// on a release word or join flag before it yields its processor: about a
// microsecond, two to three cross-core cache-line handoffs, so a
// back-to-back region or a slightly unbalanced join never reaches the
// scheduler's run-queue lock. A team larger than GOMAXPROCS polls once per
// yield instead (libgomp throttles its spin count the same way): the
// thread being waited for may need the waiter's processor.
const pollBudget = 1024

// spinWindow bounds the poll-then-yield wait at the release point before
// a worker parks — the millisecond-scale active-wait window of OpenMP
// runtimes (KMP_BLOCKTIME is likewise a time). It is a time, not a round
// count, so the window stays the same when a load costs more, as it does
// under the race detector.
const spinWindow = 4 * time.Millisecond

// regionKind selects how a team thread derives its share of the current
// region from the published descriptor.
type regionKind int

const (
	regionFn    regionKind = iota // fn(tid), the general `omp parallel` body
	regionBlock                   // block(lo, hi) over a static share of loopN
	regionElem                    // elem(i) for every i in a static share of loopN
	regionTID                     // blockTID(tid, lo, hi), run even for empty shares
)

// threadSlot is one thread's cache line: its join flag and its busy-time
// counter, both written only by that thread.
type threadSlot struct {
	done atomic.Int64 // generation of the last region this thread finished
	busy atomic.Int64 // nanoseconds inside region bodies
	_    [cacheLine - 16]byte
}

// Pool is a persistent team of execution threads. Thread 0 is the calling
// goroutine (the "master" thread, as in OpenMP); the remaining n-1 are
// worker goroutines that idle between regions.
//
// A Pool is not reentrant: regions must not be started from inside a region
// (OpenMP without nested parallelism).
type Pool struct {
	// Hooks: fixed at construction or changed by the setters, loaded by
	// every thread each region, written by no region.
	n        int
	poll     int          // loads per yield: pollBudget, or 1 for an oversubscribed team
	slots    []threadSlot // n+2 slots: thread tid owns slots[tid+1], the ends are guards
	epoch    time.Time    // origin of every stamp (carries a monotonic reading)
	observer atomic.Pointer[func(tid int, start time.Time, dur time.Duration)]
	sink     atomic.Pointer[TaskSink]
	_        [cacheLine]byte

	// Release block: gen and the region descriptor it publishes, written by
	// the master once per region. The plain fields are written before the
	// gen bump and read by workers after observing the new generation; the
	// atomic gen pair orders the accesses (release/acquire).
	gen      atomic.Int64 // region generation; bumped per dispatch (the sense)
	kind     regionKind
	loopN    int
	fn       func(tid int)
	block    func(lo, hi int)
	elem     func(i int)
	blockTID func(tid, lo, hi int)
	rsink    *TaskSink // the sink this region reports to; nil when unprofiled
	_        [cacheLine]byte

	// Master line: written only by the master. phase and released are the
	// profiled region's phase tag and release stamp, written only while a
	// sink is installed; curPhase is the tag SetPhase publishes for the
	// next region.
	regionWall atomic.Int64 // summed wall time of all regions (ns)
	regions    atomic.Int64 // number of regions executed
	released   int64        // release stamp (ns since epoch)
	phase      uint32
	curPhase   atomic.Uint32
	_          [cacheLine]byte

	// Park state: touched by workers only when they park or wake.
	mu       sync.Mutex
	cond     *sync.Cond // workers park here between regions
	sleepers atomic.Int32
	closed   atomic.Bool
	wg       sync.WaitGroup
}

// TaskSink consumes per-thread region-part execution records. It is
// structurally identical to amt.TaskSink so one profiler implementation
// serves both runtimes: worker is the thread id, queueWait is the latency
// from region release to this thread starting its share (the fork-join
// dispatch analog of time spent queued), and stolen is always false —
// static scheduling never migrates work.
type TaskSink interface {
	RecordTask(worker int, phase uint32, start time.Time, dur, queueWait time.Duration, stolen bool)
}

// SetSink installs or removes (nil) the per-part record consumer.
func (p *Pool) SetSink(sink TaskSink) {
	if sink == nil {
		p.sink.Store(nil)
		return
	}
	p.sink.Store(&sink)
}

// SetPhase publishes the phase tag stamped onto subsequently dispatched
// regions — the solver calls it once per kernel family per timestep.
func (p *Pool) SetPhase(ph uint32) { p.curPhase.Store(ph) }

// Phase returns the current phase tag.
func (p *Pool) Phase() uint32 { return p.curPhase.Load() }

// SetObserver installs a hook invoked after each thread finishes its part
// of a region, with the thread id and execution span — the fork-join
// feed for a trace.Recorder timeline. The hook runs on the team threads
// and must be cheap and concurrency-safe.
func (p *Pool) SetObserver(fn func(tid int, start time.Time, dur time.Duration)) {
	if fn == nil {
		p.observer.Store(nil)
		return
	}
	p.observer.Store(&fn)
}

// NewPool creates a team with n execution threads (n < 1 is treated as 1).
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{n: n, poll: pollBudget, epoch: time.Now()}
	if n > runtime.GOMAXPROCS(0) {
		p.poll = 1
	}
	p.cond = sync.NewCond(&p.mu)
	p.slots = make([]threadSlot, n+2)
	p.wg.Add(n - 1)
	for tid := 1; tid < n; tid++ {
		go p.worker(tid)
	}
	return p
}

// Threads reports the team size.
func (p *Pool) Threads() int { return p.n }

// Close shuts the team down. No region may be in flight.
func (p *Pool) Close() {
	p.closed.Store(true)
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// now is one monotonic clock read, in nanoseconds since the pool's epoch.
func (p *Pool) now() int64 { return int64(time.Since(p.epoch)) }

// runPart executes thread tid's share of the published region, which it
// began at stamp start, records its productive time, and returns the end
// stamp.
func (p *Pool) runPart(tid int, start int64) int64 {
	switch p.kind {
	case regionFn:
		p.fn(tid)
	case regionBlock:
		lo, hi := StaticRange(tid, p.n, p.loopN)
		if lo < hi {
			p.block(lo, hi)
		}
	case regionElem:
		lo, hi := StaticRange(tid, p.n, p.loopN)
		for i := lo; i < hi; i++ {
			p.elem(i)
		}
	case regionTID:
		lo, hi := StaticRange(tid, p.n, p.loopN)
		p.blockTID(tid, lo, hi)
	}
	end := p.now()
	dur := end - start
	p.slots[tid+1].busy.Add(dur)
	if obs := p.observer.Load(); obs != nil {
		(*obs)(tid, p.epoch.Add(time.Duration(start)), time.Duration(dur))
	}
	if sk := p.rsink; sk != nil {
		(*sk).RecordTask(tid, p.phase, p.epoch.Add(time.Duration(start)),
			time.Duration(dur), time.Duration(start-p.released), false)
	}
	return end
}

func (p *Pool) worker(tid int) {
	defer p.wg.Done()
	slot := &p.slots[tid+1]
	last, idle := int64(0), p.now()
	for {
		g, ok := p.awaitRelease(last, idle)
		if !ok {
			return
		}
		last = g
		idle = p.runPart(tid, p.now())
		// Sense-reversing arrival: publish this region's generation into
		// the thread's own slot; the master polls the slots.
		slot.done.Store(g)
	}
}

// awaitRelease waits until gen moves past last and returns the new
// generation, or reports false once the pool is closed: poll, then yield,
// and park once spinWindow has passed since the stamp idle.
func (p *Pool) awaitRelease(last, idle int64) (int64, bool) {
	for {
		for i := 0; i < p.poll; i++ {
			if g := p.gen.Load(); g != last {
				return g, true
			}
		}
		if p.closed.Load() {
			return 0, false
		}
		if p.now()-idle < int64(spinWindow) {
			runtime.Gosched()
			continue
		}
		p.mu.Lock()
		// Register as sleeper before re-checking gen: the master checks
		// sleepers after bumping gen, so one of the two sides is
		// guaranteed to see the other (no lost wakeup).
		p.sleepers.Add(1)
		g := p.gen.Load()
		for g == last && !p.closed.Load() {
			p.cond.Wait()
			g = p.gen.Load()
		}
		p.sleepers.Add(-1)
		p.mu.Unlock()
		return g, g != last
	}
}

// dispatch releases the team on the already-written region descriptor,
// runs the master's share, and joins at the padded sense-reversing
// barrier (the implicit barrier at the end of an OpenMP region).
func (p *Pool) dispatch() {
	start := p.now()
	// Only a profiled region carries a phase tag and release stamp; the
	// stamp is also the master's part start, so its queue wait is zero.
	p.rsink = p.sink.Load()
	if p.rsink != nil {
		p.phase = p.curPhase.Load()
		p.released = start
	}
	end := start
	if p.n == 1 {
		end = p.runPart(0, start)
	} else {
		g := p.gen.Add(1)
		if p.sleepers.Load() > 0 {
			p.mu.Lock()
			p.cond.Broadcast()
			p.mu.Unlock()
		}
		p.runPart(0, start)
		for tid := 1; tid < p.n; tid++ {
			flag := &p.slots[tid+1].done
			for i := 0; flag.Load() != g; i++ {
				if i == p.poll {
					runtime.Gosched()
					i = 0
				}
			}
		}
		end = p.now()
	}
	p.regionWall.Add(end - start)
	p.regions.Add(1)
}

// Parallel executes fn(tid) on every thread of the team, like
// `#pragma omp parallel`. It returns after all threads have finished (the
// implicit barrier at the end of an OpenMP parallel region).
func (p *Pool) Parallel(fn func(tid int)) {
	p.kind = regionFn
	p.fn = fn
	p.dispatch()
}

// StaticRange returns the half-open index range [lo, hi) that thread tid of
// nth threads owns under OpenMP static scheduling of n iterations.
func StaticRange(tid, nth, n int) (lo, hi int) {
	chunk := n / nth
	rem := n % nth
	if tid < rem {
		lo = tid * (chunk + 1)
		hi = lo + chunk + 1
		return lo, hi
	}
	lo = rem*(chunk+1) + (tid-rem)*chunk
	hi = lo + chunk
	return lo, hi
}

// ParallelForBlock executes body(lo, hi) over a static partition of
// [0, n) — one contiguous block per thread — with a barrier at the end,
// like `#pragma omp parallel for schedule(static)`. This is a fast path:
// the split happens on each thread from the published descriptor, with no
// per-region closure.
func (p *Pool) ParallelForBlock(n int, body func(lo, hi int)) {
	p.kind = regionBlock
	p.loopN = n
	p.block = body
	p.dispatch()
}

// ParallelFor executes body(i) for every i in [0, n) with static
// scheduling and a trailing barrier.
func (p *Pool) ParallelFor(n int, body func(i int)) {
	p.kind = regionElem
	p.loopN = n
	p.elem = body
	p.dispatch()
}

// ParallelStatic executes body(tid, lo, hi) on every thread, where
// [lo, hi) is the thread's static share of [0, n) — the
// `#pragma omp parallel` + per-thread StaticRange idiom without the
// per-call closure. Unlike ParallelForBlock, body runs on every thread
// even when its share is empty, so per-thread reduction slots can always
// be written.
func (p *Pool) ParallelStatic(n int, body func(tid, lo, hi int)) {
	p.kind = regionTID
	p.loopN = n
	p.blockTID = body
	p.dispatch()
}

// Counters is a snapshot of team activity since the last ResetCounters.
// Utilization corresponds to the paper's Figure 11 measurement for the
// OpenMP reference: time inside parallel-region bodies divided by
// (region wall time × team size), excluding single-threaded portions.
type Counters struct {
	Threads   int
	Wall      time.Duration // summed wall time of all regions
	Busy      time.Duration // summed body time across threads
	Regions   int64
	PerThread []time.Duration
}

// Utilization is the ratio of productive time to total thread time across
// all parallel regions.
func (c Counters) Utilization() float64 {
	den := float64(c.Wall) * float64(c.Threads)
	if den <= 0 {
		return 0
	}
	u := float64(c.Busy) / den
	if u > 1 {
		u = 1
	}
	return u
}

func (c Counters) String() string {
	return fmt.Sprintf("threads=%d regionWall=%v busy=%v util=%.1f%% regions=%d",
		c.Threads, c.Wall, c.Busy, 100*c.Utilization(), c.Regions)
}

// ResetCounters zeroes the productive-time instrumentation.
func (p *Pool) ResetCounters() {
	for i := range p.slots {
		p.slots[i].busy.Store(0)
	}
	p.regionWall.Store(0)
	p.regions.Store(0)
}

// CountersSnapshot returns activity accumulated since the last ResetCounters.
func (p *Pool) CountersSnapshot() Counters {
	c := Counters{Threads: p.n, Regions: p.regions.Load()}
	c.Wall = time.Duration(p.regionWall.Load())
	c.PerThread = make([]time.Duration, p.n)
	for i := range c.PerThread {
		b := time.Duration(p.slots[i+1].busy.Load())
		c.PerThread[i] = b
		c.Busy += b
	}
	return c
}
