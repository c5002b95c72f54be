package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile is the linearly interpolated q-quantile (0 <= q <= 1) of an
// ascending slice; NaN when it is empty.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

func percentile(v []float64, p int) float64 { return quantile(sorted(v), float64(p)/100) }

// tailPercentile picks the highest percentile of {99, 95, 90, 75} that
// still has at least ten of n samples beyond it, or 50 when none has.
func tailPercentile(n int) int {
	for _, p := range []int{99, 95, 90, 75} {
		if n*(100-p) >= 10*100 {
			return p
		}
	}
	return 50
}

// reportTail prints how many samples a timing has, its median and the
// highest percentile the ten-samples-beyond rule allows.
func reportTail(workload, what string, ms []float64) {
	p := tailPercentile(len(ms))
	fmt.Printf("%-12s %s: %d samples, median %.4g ms, p%d %.4g ms\n",
		workload, what, len(ms), median(ms), p, percentile(ms, p))
}

// metg returns the smallest task grain (µs) at which efficiency reaches
// target, interpolating linearly in log2(grain) between the two grains
// that bracket it. grains ascend; eff[i] is the efficiency measured at
// grains[i]. It returns the largest grain when the target is never met
// and the smallest when it is met from the start.
func metg(grains, eff []float64, target float64) float64 {
	for i, e := range eff {
		if e < target {
			continue
		}
		if i == 0 || eff[i-1] >= e {
			return grains[i]
		}
		f := (target - eff[i-1]) / (e - eff[i-1])
		return math.Exp2(math.Log2(grains[i-1]) + f*(math.Log2(grains[i])-math.Log2(grains[i-1])))
	}
	return grains[len(grains)-1]
}
