package omp

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// Microbenchmarks of the fork-join primitives: the per-loop cost the
// OpenMP-style backend pays that the task backend's restructuring avoids.

// BenchmarkEmptyRegion is one release and one join of a two-thread team
// with nothing in between: the per-construct cost of the comparator.
func BenchmarkEmptyRegion(b *testing.B) {
	p := NewPool(2)
	defer p.Close()
	body := func(tid int) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Parallel(body)
	}
}

func BenchmarkParallelForStatic(b *testing.B) {
	p := NewPool(2)
	defer p.Close()
	data := make([]float64, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ParallelForBlock(len(data), func(lo, hi int) {
			for j := lo; j < hi; j++ {
				data[j] += 1
			}
		})
	}
}

func BenchmarkParallelForDynamic(b *testing.B) {
	p := NewPool(2)
	defer p.Close()
	data := make([]float64, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ParallelForDynamic(len(data), 4096, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				data[j] += 1
			}
		})
	}
}

// BenchmarkCacheLinePingPong is the hardware floor of a fork-join
// handoff: two goroutines bounce a counter through two words on separate
// cache lines. One op is one round trip — what a release plus a join
// costs at least on two cores.
func BenchmarkCacheLinePingPong(b *testing.B) {
	var words [2]threadSlot
	ping, pong := &words[0].done, &words[1].done
	wait := func(w *atomic.Int64, v int64) {
		for i := 0; w.Load() != v; i++ {
			if i == pollBudget {
				runtime.Gosched()
				i = 0
			}
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(1); i <= int64(b.N); i++ {
			wait(ping, i)
			pong.Store(i)
		}
	}()
	b.ResetTimer()
	for i := int64(1); i <= int64(b.N); i++ {
		ping.Store(i)
		wait(pong, i)
	}
	<-done
}

// BenchmarkEmptyRegionOversubscribed runs empty regions on a team of 8
// squeezed onto two processors: waiting threads must yield, or the ones
// they wait for never run.
func BenchmarkEmptyRegionOversubscribed(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	p := NewPool(8)
	defer p.Close()
	body := func(tid int) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Parallel(body)
	}
}
