package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers around that call. Parent is an index into the tracer's span
// list, -1 for the root.
type span struct {
	Name     string
	Layer    string
	Workload string
	Rep      int
	Lane     int // goroutine lane: 0 for the driver loop, 1+ for serve clients
	Start    time.Duration
	End      time.Duration
	Parent   int
}

// tracer keeps spans in memory until the run ends. A nil tracer and a
// tracer that is switched off both record nothing, so the untraced run
// pays one nil check per call.
type tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	on       bool
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{epoch: time.Now(), workload: workload, on: true}
}

// start opens a span and returns its id, or -1 when nothing is recorded.
func (t *tracer) start(parent int, name, layer string, rep, lane int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, Layer: layer, Workload: t.workload, Rep: rep, Lane: lane,
		Start: time.Since(t.epoch), End: -1, Parent: parent,
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = time.Since(t.epoch)
	t.mu.Unlock()
}

func (t *tracer) setOn(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

type interval struct{ lo, hi time.Duration }

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs []interval, lo, hi time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum time.Duration
	at := lo
	for _, iv := range ivs {
		a, b := iv.lo, iv.hi
		if a < at {
			a = at
		}
		if b > hi {
			b = hi
		}
		if b > a {
			sum += b - a
			at = b
		}
	}
	return sum
}

// selfTimes returns, per span, its duration minus the part of it that its
// child spans cover; overlapping children are counted once.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]interval, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= s.Start {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		self[i] = (s.End - s.Start) - covered(kids[i], s.Start, s.End)
	}
	return self
}

// coverage is the share of the root spans' time that their direct
// children cover: what the trace explains of the workload's wall.
func coverage(spans []span) float64 {
	self := selfTimes(spans)
	var wall, own time.Duration
	for i, s := range spans {
		if s.Parent == -1 && s.End >= s.Start {
			wall += s.End - s.Start
			own += self[i]
		}
	}
	if wall == 0 {
		return 0
	}
	return 1 - float64(own)/float64(wall)
}

// writeChromeTrace writes the spans in the Trace Event format that
// chrome://tracing and Perfetto load: one complete event per span, one
// thread row per lane, self time in args.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(spans)
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Lane,
			Args: map[string]any{
				"workload": s.Workload, "rep": s.Rep, "parent": s.Parent,
				"self_us": float64(self[i]) / 1e3,
			},
		})
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
