package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/insight"
	"repro/internal/lang"
	"repro/internal/msgbus"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/telemetry"
	"repro/internal/timeseries"
	"repro/internal/vclock"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// storm is the resilient chaos storm with the whole observability
// stack running: a 3-node cluster under a seeded 1% fault plane with
// default retries and 2 failovers; a snapshot store one byte short of
// the two light functions' deltas, so deltas keep evicting and coming
// back from remote; a tail sampler, a time-series sampler and an SLO
// watchdog; light fact/matmul invocations interleaved with declarative
// Alexa workflow runs; an operator poll (time-series sample and
// watchdog, insight report, metrics scrape, memory report) every
// stormPollEvery ops; and an NDJSON export of the journal every
// stormEpisode ops and at the end. One client keeps the storm
// deterministic, so the warm-up's exports digest to a recorded value
// per seed.
//
// The journal holds stormJournalCap events, so its ring fills during
// the warm-up and insight reports cost the same all run. Histogram
// snapshots (scrape and sample) still grow with every observation the
// run adds, so the storm's per-op cost rises slowly with run length.
const (
	stormNodes      = 3
	stormRate       = 0.01
	stormFailovers  = 2
	stormKeepRate   = 0.05
	stormJournalCap = 1 << 14
	// Every stormWorkflowEvery-th op is an Alexa workflow run.
	stormWorkflowEvery = 4
	stormPollEvery     = 4
	stormEpisode       = 200
	// stormWarmOps is the digested warm-up: three episodes, enough to
	// fill the journal ring.
	stormWarmOps = 3 * stormEpisode
)

type stormBench struct {
	seed     uint64
	tr       *tracer
	c        *cluster.Cluster
	eng      *workflow.Engine
	tail     *telemetry.TailSampler
	sampler  *timeseries.Sampler
	wd       *timeseries.Watchdog
	timeline *vclock.Clock
	fact     string
	matmul   string

	ops, failures int
	completed     int
	cursor        uint64       // Seq of the newest exported event
	exported      int64        // NDJSON bytes exported
	ndjson        bytes.Buffer // the latest export
	buf           bytes.Buffer // scratch for poll reports
	err           error
}

// stormInvoker places workflow steps on the cluster like any request.
type stormInvoker struct{ b *stormBench }

func (si stormInvoker) Invoke(name string, params lang.Value, opts platform.InvokeOptions) (*platform.Invocation, error) {
	defer si.b.tr.bind(params, 0)()
	id := si.b.tr.begin(0, "cluster.invoke")
	defer si.b.tr.end(id)
	inv, _, err := si.b.c.Invoke(name, params, opts)
	return inv, err
}

func newStorm(seed uint64, _ *recorded, tr *tracer) (bench, error) {
	light := []workloads.Workload{workloads.Fact(runtime.LangNode), workloads.MatrixMult(runtime.LangNode)}
	b := &stormBench{seed: seed, tr: tr, fact: light[0].Name, matmul: light[1].Name}
	// Size the store to the base image plus both light deltas, less a
	// byte, the way the chaos experiment does.
	probe := platform.NewEnv(platform.EnvConfig{})
	pfw := core.New(probe, core.Options{})
	for _, w := range light {
		if _, err := pfw.Install(w.Function); err != nil {
			return nil, err
		}
	}
	plane := faults.NewPlane(seed)
	cfg := platform.EnvConfig{
		Events:                events.NewJournal(stormJournalCap),
		SnapshotDiskBudget:    probe.Snaps.UsedBytes() - 1,
		RemoteSnapshotStorage: true,
		Faults:                plane,
	}
	b.c = cluster.New(stormNodes, cluster.RoundRobin, cfg, func(env *platform.Env) platform.Platform {
		return timedPlatform{Platform: core.New(env, core.Options{Retry: faults.DefaultRetryPolicy()}), tr: tr}
	})
	b.c.SetFailover(cluster.FailoverPolicy{MaxFailovers: stormFailovers})
	// Skills before the classifier, so install-time priming reaches them.
	var fns []workloads.Workload
	for _, w := range workloads.AlexaSkills() {
		switch w.Name {
		case workloads.NameAlexaFact, workloads.NameAlexaReminder, workloads.NameAlexaSmartHome:
			fns = append(fns, w)
		}
	}
	fns = append(fns, workloads.WorkflowFunctions()[0])
	fns = append(fns, light...)
	for _, w := range fns {
		if err := b.c.Install(w.Function); err != nil {
			return nil, err
		}
	}
	reg, journal := b.c.Metrics(), b.c.Journal()
	b.tail = telemetry.New(telemetry.Config{Seed: seed, KeepRate: stormKeepRate})
	b.tail.Attach(journal, reg)
	// The default plan also crashes nodes at the cluster site. A
	// 3-node cluster then has stretches with every node down, where
	// every request fails whatever the retries; the benchmark measures
	// host cost on requests that succeed, so it leaves nodes up.
	plane.ApplyDefaultPlan(stormRate)
	plane.ClearProfile(faults.SiteClusterNode)

	bus := msgbus.NewBroker()
	bus.Instrument(reg)
	b.eng = workflow.New(bus, journal, reg, stormInvoker{b}, workflow.Options{Retry: faults.DefaultRetryPolicy()})
	if err := b.eng.Register(workloads.AlexaWorkflow()); err != nil {
		return nil, err
	}
	b.sampler = timeseries.NewSampler(reg, timeseries.DefaultCapacity)
	b.sampler.SetRollups(timeseries.DefaultRollups())
	b.sampler.AddProbe("storm_requests_total", func() float64 { return float64(b.ops) })
	b.sampler.AddProbe("storm_failures_total", func() float64 { return float64(b.failures) })
	b.wd = timeseries.NewWatchdog(b.sampler, journal, reg)
	b.wd.AddRule(timeseries.Rule{
		Name:      "invoke-success-rate",
		Ratio:     &timeseries.RatioSource{Num: "storm_failures_total", Den: "storm_requests_total", Complement: true, MinDen: 50},
		Op:        timeseries.AtLeast,
		Threshold: 0.99,
	})
	b.timeline = vclock.New()
	b.sampler.Sample(0)
	return b, nil
}

// alexaRequest draws one utterance. Reminder ids come from a small set,
// so the reminder database stays bounded however long the storm runs.
func alexaRequest(r *rng) map[string]any {
	switch r.intn(5) {
	case 0:
		return map[string]any{"text": "alexa, tell me an interesting fact"}
	case 1:
		id := fmt.Sprintf("r%d", r.intn(8))
		return map[string]any{"text": "remind me to water the plants", "action": "add", "id": id,
			"item": "water plants " + id, "place": "balcony", "url": "https://cal.example/" + id}
	case 2:
		return map[string]any{"text": "remind me what is on my schedule", "action": "list"}
	case 3:
		return map[string]any{"text": "turn on the living room lights", "action": "toggle",
			"device": []string{"light", "door", "tv"}[r.intn(3)]}
	default:
		return map[string]any{"text": "what is the status of the door and the tv", "action": "status"}
	}
}

// step runs op number b.ops and the bookkeeping after it (tail
// sampler flush, poll, episode export), and returns the op's virtual
// latency (1µs for a failed op, as in the
// chaos experiment, so failures still move the timeline).
func (b *stormBench) step(l *lane) time.Duration {
	r := newRNG(b.seed, uint64(b.ops))
	virt := time.Microsecond
	var err error
	if b.ops%stormWorkflowEvery == stormWorkflowEvery-1 {
		input := alexaRequest(r)
		err = l.op(func() error {
			id := b.tr.begin(0, "workflow.run")
			defer b.tr.end(id)
			run, err := b.eng.Run("alexa", input, b.timeline.Now())
			if err != nil {
				return err
			}
			if run.Status != workflow.RunCompleted {
				return fmt.Errorf("workflow run %s %s", run.ID, run.Status)
			}
			b.completed++
			virt = run.Invocation.Breakdown.Total()
			return nil
		})
	} else {
		name, p := b.fact, map[string]any{"n": 100 + r.intn(900), "rounds": 1 + r.intn(2)}
		if r.intn(2) == 1 {
			name, p = b.matmul, map[string]any{"n": 2 + r.intn(5)}
		}
		params := platform.MustParams(p)
		err = l.op(func() error {
			defer b.tr.bind(params, 0)()
			id := b.tr.begin(0, "cluster.invoke")
			defer b.tr.end(id)
			inv, _, err := b.c.Invoke(name, params, platform.InvokeOptions{})
			if err == nil {
				virt = inv.Breakdown.Total()
			}
			return err
		})
	}
	if err != nil {
		b.failures++
		if b.failures == 1 {
			fmt.Printf("# storm: first failed op %d: %v\n", b.ops, err)
		}
	}
	b.ops++
	now := b.timeline.Advance(virt)
	b.timed("telemetry.flush", func() { b.tail.Flush(now) })
	if b.ops%stormPollEvery == 0 {
		b.poll(now)
	}
	if b.ops%stormEpisode == 0 {
		b.export()
	}
	return virt
}

func (b *stormBench) timed(name string, fn func()) {
	id := b.tr.begin(0, name)
	fn()
	b.tr.end(id)
}

// poll is the operator's look at the fleet.
func (b *stormBench) poll(now time.Duration) {
	b.timed("timeseries.sample", func() { b.sampler.Sample(now) })
	b.timed("timeseries.evaluate", func() { b.wd.Evaluate(now) })
	b.timed("insight.report", func() {
		rep := insight.Analyze(b.c.Journal().Events())
		st := b.tail.Stats()
		rep.AnnotateCoverage(int(st.KeptTraces), int(st.DecidedTraces))
		b.buf.Reset()
		b.keep(rep.WriteJSON(&b.buf))
	})
	b.timed("metrics.scrape", func() {
		b.buf.Reset()
		b.keep(b.c.Metrics().WriteText(&b.buf))
	})
	b.timed("mem.report", func() {
		for _, n := range b.c.Nodes() {
			if rep := n.Env.Mem.Report(); !rep.PSSPageExact {
				b.keep(fmt.Errorf("storm %s: PSS not page-exact", n.Name))
			}
		}
	})
}

// export writes the journal events appended since the last export as
// NDJSON into b.ndjson.
func (b *stormBench) export() {
	var out []events.Event
	b.timed("events.export", func() {
		for _, e := range b.c.Journal().Events() {
			if e.Seq > b.cursor {
				out = append(out, e)
			}
		}
		b.ndjson.Reset()
		b.keep(events.WriteNDJSON(&b.ndjson, out))
	})
	if len(out) > 0 {
		b.cursor = out[len(out)-1].Seq
	}
	b.exported += int64(b.ndjson.Len())
}

// keep records the first error a step hit.
func (b *stormBench) keep(err error) {
	if err != nil && b.err == nil {
		b.err = err
	}
}

// warm runs the first stormWarmOps ops and digests their virtual
// latencies and their NDJSON exports.
func (b *stormBench) warm() (map[string]string, error) {
	l := (&phase{}).lane()
	virt := make([]time.Duration, 0, stormWarmOps)
	nd := sha256.New()
	for b.ops < stormWarmOps {
		virt = append(virt, b.step(l))
		if b.ops%stormEpisode == 0 {
			nd.Write(b.ndjson.Bytes())
		}
	}
	if b.err != nil {
		return nil, b.err
	}
	return map[string]string{"virtual_latency": digestDurations(virt), "ndjson": hex.EncodeToString(nd.Sum(nil))}, nil
}

func (b *stormBench) measure(deadline time.Time, ph *phase) error {
	l := ph.lane()
	defer ph.merge(l)
	for time.Now().Before(deadline) {
		b.step(l)
		ph.boundary()
	}
	b.export()
	return nil
}

func (b *stormBench) check() error { return b.err }

func (b *stormBench) counts() map[string]float64 {
	out := clusterCounts(b.c)
	st := b.tail.Stats()
	out["telemetry.traces_kept"] = float64(st.KeptTraces)
	out["telemetry.traces_dropped"] = float64(st.DroppedTraces)
	out["events.ndjson_bytes"] = float64(b.exported)
	out["workflow.runs_completed"] = float64(b.completed)
	return out
}
