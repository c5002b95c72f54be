package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedianAndPercentile(t *testing.T) {
	v := []float64{9, 1, 5, 3, 7}
	if got := median(v); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if v[0] != 9 {
		t.Errorf("median reordered its input: %v", v)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := percentile([]float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 90); !near(got, 90) {
		t.Errorf("p90 = %v, want 90", got)
	}
	if got := percentile([]float64{1, 2}, 90); !near(got, 1.9) {
		t.Errorf("p90 of two = %v, want 1.9", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for n, want := range map[int]int{5: 50, 39: 50, 40: 75, 99: 75, 100: 90, 199: 90, 200: 95, 999: 95, 1000: 99, 5000: 99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestMETGInterpolatesInLogGrain(t *testing.T) {
	grains := []float64{1, 2, 4, 8, 16}
	cases := []struct {
		eff  []float64
		want float64
	}{
		{[]float64{0.1, 0.2, 0.4, 0.6, 0.9}, 4 * math.Sqrt2}, // half-way between 4 and 8
		{[]float64{0.1, 0.5, 0.7, 0.8, 0.9}, 2},              // met exactly on a grain
		{[]float64{0.6, 0.7, 0.8, 0.9, 1.0}, 1},              // met from the start
		{[]float64{0.1, 0.1, 0.2, 0.3, 0.4}, 16},             // never met
		{[]float64{0.1, 0.25, 0.75, 0.9, 1.0}, 2 * math.Sqrt2},
	}
	for _, c := range cases {
		if got := metg(grains, c.eff, 0.5); !near(got, c.want) {
			t.Errorf("metg(%v) = %v, want %v", c.eff, got, c.want)
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "round", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "a", Start: ms(10), End: ms(50), Parent: 0},  // lane 1
		{Name: "b", Start: ms(30), End: ms(70), Parent: 0},  // lane 2, overlaps a
		{Name: "c", Start: ms(90), End: ms(120), Parent: 0}, // runs past its parent
		{Name: "a1", Start: ms(10), End: ms(20), Parent: 1},
		{Name: "open", Start: ms(95), End: -1, Parent: 0}, // never ended
	}
	self := selfTimes(spans)
	want := []time.Duration{ms(30), ms(30), ms(40), ms(30), ms(10), 0}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
	if got := coverage(spans); !near(got, 0.7) {
		t.Errorf("coverage = %v, want 0.7", got)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	var none *tracer
	none.end(none.start(-1, "x", "l", 0, 0))
	tr := newTracer("w")
	tr.setOn(false)
	tr.end(tr.start(-1, "x", "l", 0, 0))
	tr.setOn(true)
	id := tr.start(-1, "y", "l", 0, 0)
	tr.end(id)
	if len(tr.spans) != 1 || tr.spans[0].Name != "y" || tr.spans[0].End < tr.spans[0].Start {
		t.Errorf("spans = %+v, want one closed span y", tr.spans)
	}
}

func TestJobMixIsSeededAndBalanced(t *testing.T) {
	draw := func(seed int64, n int) []jobSpec {
		m := newJobMix(seed, 20)
		out := make([]jobSpec, n)
		for i := range out {
			out[i] = m.next()
		}
		return out
	}
	a, b, c := draw(7, 54), draw(7, 54), draw(8, 54)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 drew %v then %v at %d", a[i], b[i], i)
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("seeds 7 and 8 drew the same sequence")
	}
	// Every deck of 18 holds each combination once, whatever the seed.
	for deck := 0; deck < 3; deck++ {
		seen := map[jobSpec]int{}
		for _, s := range c[deck*18 : deck*18+18] {
			seen[s]++
		}
		if len(seen) != 18 {
			t.Errorf("deck %d holds %d distinct jobs, want 18", deck, len(seen))
		}
	}
}

func TestGoldensCompareBits(t *testing.T) {
	g := &goldens{strict: true, learned: map[string][]string{},
		committed: map[string][]string{"k": {"0x3ff0000000000000", "0x4000000000000000"}}}
	if err := g.check("k", 1, 2); err != nil {
		t.Errorf("matching values: %v", err)
	}
	if err := g.check("k", 1, math.Nextafter(2, 3)); err == nil {
		t.Error("a value one ulp off passed")
	}
	if err := g.check("k", 1); err == nil {
		t.Error("a missing value passed")
	}
	if err := g.check("other", 1); err == nil {
		t.Error("an uncommitted key passed a strict check")
	}
	g.strict = false
	if err := g.check("other", 1); err != nil {
		t.Errorf("first value of a learned key: %v", err)
	}
	if err := g.check("other", 1.5); err == nil {
		t.Error("a learned key accepted a second, different value")
	}
}
