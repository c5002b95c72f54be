package omp

import (
	"testing"
	"unsafe"
)

// field names a Pool field by its byte extent within the struct.
type field struct {
	name      string
	off, size uintptr
}

// apart reports whether no cache line can hold bytes of both fields,
// whatever the Pool's alignment: the gap between them is a full line.
func apart(a, b field) bool {
	if a.off > b.off {
		a, b = b, a
	}
	return b.off >= a.off+a.size+cacheLine
}

func TestThreadSlotIsOneLine(t *testing.T) {
	if got := unsafe.Sizeof(threadSlot{}); got != cacheLine {
		t.Fatalf("threadSlot is %d bytes, want %d", got, cacheLine)
	}
	p := newTestPool(t, 3)
	// One guard slot on each side of the live ones, so slot 0 and slot n-1
	// share no line with a neighbouring heap object.
	if len(p.slots) != p.n+2 {
		t.Fatalf("%d slots for %d threads, want a guard slot at each end", len(p.slots), p.n)
	}
}

func TestPoolCacheLineMap(t *testing.T) {
	var p Pool
	f := func(name string, off, size uintptr) field { return field{name, off, size} }
	gen := f("gen", unsafe.Offsetof(p.gen), unsafe.Sizeof(p.gen))
	release := []field{
		gen,
		f("kind", unsafe.Offsetof(p.kind), unsafe.Sizeof(p.kind)),
		f("loopN", unsafe.Offsetof(p.loopN), unsafe.Sizeof(p.loopN)),
		f("fn", unsafe.Offsetof(p.fn), unsafe.Sizeof(p.fn)),
		f("block", unsafe.Offsetof(p.block), unsafe.Sizeof(p.block)),
		f("elem", unsafe.Offsetof(p.elem), unsafe.Sizeof(p.elem)),
		f("blockTID", unsafe.Offsetof(p.blockTID), unsafe.Sizeof(p.blockTID)),
		f("rsink", unsafe.Offsetof(p.rsink), unsafe.Sizeof(p.rsink)),
	}
	master := []field{
		f("regionWall", unsafe.Offsetof(p.regionWall), unsafe.Sizeof(p.regionWall)),
		f("regions", unsafe.Offsetof(p.regions), unsafe.Sizeof(p.regions)),
		f("phase", unsafe.Offsetof(p.phase), unsafe.Sizeof(p.phase)),
		f("released", unsafe.Offsetof(p.released), unsafe.Sizeof(p.released)),
	}
	hooks := []field{
		f("n", unsafe.Offsetof(p.n), unsafe.Sizeof(p.n)),
		f("poll", unsafe.Offsetof(p.poll), unsafe.Sizeof(p.poll)),
		f("slots", unsafe.Offsetof(p.slots), unsafe.Sizeof(p.slots)),
		f("epoch", unsafe.Offsetof(p.epoch), unsafe.Sizeof(p.epoch)),
		f("observer", unsafe.Offsetof(p.observer), unsafe.Sizeof(p.observer)),
		f("sink", unsafe.Offsetof(p.sink), unsafe.Sizeof(p.sink)),
	}

	// The release word and the descriptor it publishes fit one line.
	last := release[len(release)-1]
	if span := last.off + last.size - gen.off; span > cacheLine {
		t.Errorf("release block spans %d bytes, want <= %d", span, cacheLine)
	}
	for _, m := range master {
		if !apart(m, gen) {
			t.Errorf("master-written %s can share a line with gen", m.name)
		}
	}
	// Nothing written per region may share a line with the hooks.
	for _, h := range hooks {
		for _, w := range append(append([]field(nil), release...), master...) {
			if !apart(h, w) {
				t.Errorf("hook %s can share a line with per-region write %s", h.name, w.name)
			}
		}
	}
	// Parking and shutdown state stays off the per-region lines too.
	sleepers := f("sleepers", unsafe.Offsetof(p.sleepers), unsafe.Sizeof(p.sleepers))
	for _, w := range append(append([]field(nil), release...), master...) {
		if !apart(sleepers, w) {
			t.Errorf("sleepers can share a line with per-region write %s", w.name)
		}
	}
}
