package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lang"
	"repro/internal/platform"
	"repro/internal/stats"
)

// span is one timed call into a layer of the simulator.
type span struct {
	Name   string `json:"name"`
	Lane   int    `json:"lane"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
}

// tracer records spans around the benchmark's calls into the
// simulator. It is off until enable; while off, begin costs one atomic
// load, so the untraced runs measure the same code.
//
// A lane is one closed-loop client. Each lane has its own stack of open
// spans, which gives every span its parent. Calls that cross into the
// simulator and come back through a timed wrapper (timedPlatform) find
// their lane from the request's params value, which the client binds
// when it starts a traced op; the wrapper times exactly the calls of
// bound requests, so an op is traced whole or not at all even when
// another lane switches the tracer mid-op.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	stacks map[int][]int
	lanes  map[lang.Value]int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), stacks: make(map[int][]int), lanes: make(map[lang.Value]int)}
}

func (t *tracer) enable() { t.on.Store(true) }

func (t *tracer) disable() { t.on.Store(false) }

// begin opens a span on a lane and returns its id, or -1 when off.
func (t *tracer) begin(lane int, name string) int {
	if !t.on.Load() {
		return -1
	}
	return t.push(lane, name)
}

// push opens a span whether or not the tracer is on.
func (t *tracer) push(lane int, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if st := t.stacks[lane]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Lane: lane, Start: int64(time.Since(t.epoch)), End: -1, Parent: parent})
	t.stacks[lane] = append(t.stacks[lane], id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = int64(time.Since(t.epoch))
	lane := t.spans[id].Lane
	st := t.stacks[lane]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == id {
			t.stacks[lane] = append(st[:i], st[i+1:]...)
			break
		}
	}
}

// bind tells timed wrappers which lane a traced request's params
// belong to; it binds nothing while the tracer is off. The returned
// func unbinds them.
func (t *tracer) bind(params lang.Value, lane int) func() {
	if !t.on.Load() {
		return func() {}
	}
	t.mu.Lock()
	t.lanes[params] = lane
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		delete(t.lanes, params)
		t.mu.Unlock()
	}
}

// laneOf returns the lane bound to params, if any.
func (t *tracer) laneOf(params lang.Value) (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	lane, ok := t.lanes[params]
	return lane, ok
}

// spanStats is the per-name summary of a traced run.
type spanStats struct {
	Count   int
	P50Ms   float64
	TotalMs float64
	SelfMs  float64
}

// summary summarizes the spans recorded so far.
func (t *tracer) summary() map[string]spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return summarize(t.spans)
}

// summarize computes, per span name, the call count, p50 duration,
// total duration and total self time. Self time is a span's duration
// minus the part of it its child spans cover.
func summarize(spans []span) map[string]spanStats {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	durs := make(map[string][]float64)
	out := make(map[string]spanStats)
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start
		st := out[s.Name]
		st.Count++
		st.TotalMs += float64(d) / 1e6
		st.SelfMs += float64(d-covered(spans, children[i])) / 1e6
		out[s.Name] = st
		durs[s.Name] = append(durs[s.Name], float64(d)/1e6)
	}
	for name, ds := range durs {
		st := out[name]
		st.P50Ms = stats.Percentile(ds, 50)
		out[name] = st
	}
	return out
}

// covered returns the length of the union of the child intervals.
func covered(spans []span, kids []int) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		if spans[k].End >= 0 {
			iv = append(iv, [2]int64{spans[k].Start, spans[k].End})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curS, curE, open = x[0], x[1], true
		case x[0] > curE:
			total += curE - curS
			curS, curE = x[0], x[1]
		case x[1] > curE:
			curE = x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// writeSpans dumps the recorded spans, one JSON object per line.
func (t *tracer) writeSpans(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// timedPlatform times the calls a cluster makes into a node's Fireworks
// framework, which the benchmark cannot wrap from outside.
type timedPlatform struct {
	platform.Platform
	tr *tracer
}

func (p timedPlatform) Install(fn platform.Function) (*platform.InstallReport, error) {
	id := p.tr.begin(0, "core.install")
	defer p.tr.end(id)
	return p.Platform.Install(fn)
}

func (p timedPlatform) Invoke(name string, params lang.Value, opts platform.InvokeOptions) (*platform.Invocation, error) {
	lane, traced := p.tr.laneOf(params)
	if !traced {
		return p.Platform.Invoke(name, params, opts)
	}
	id := p.tr.push(lane, "core.invoke")
	defer p.tr.end(id)
	return p.Platform.Invoke(name, params, opts)
}
