// Package repro's root benchmarks regenerate every table and figure of
// the paper's evaluation as Go benchmarks (one per artifact), plus
// fine-grained microbenchmarks of the paths the paper's claims rest on:
// snapshot restore vs cold boot, interpreter vs JIT execution, and CoW
// page accounting.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks report virtual-time metrics (ns_virtual/op
// style custom metrics) alongside wall-clock numbers; the printed
// figures themselves come from `go run ./cmd/fwbench -run all`.
package repro_test

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/experiments"
	"repro/internal/insight"
	"repro/internal/lang"
	"repro/internal/lang/bytecode"
	"repro/internal/lang/jit"
	"repro/internal/lang/vm"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/msgbus"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/telemetry"
	"repro/internal/vclock"
	"repro/internal/vmm"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// benchExperiment runs one full experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := exp.Run()
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range res.Checks {
			if !c.Pass {
				b.Fatalf("%s: shape check %q failed (paper %s, measured %s)",
					id, c.Name, c.Expected, c.Measured)
			}
		}
	}
}

// --- One benchmark per table/figure (deliverable d) ---

func BenchmarkTable1Matrix(b *testing.B)       { benchExperiment(b, "table1") }
func BenchmarkTable2Workloads(b *testing.B)    { benchExperiment(b, "table2") }
func BenchmarkSnapshotCreation(b *testing.B)   { benchExperiment(b, "snaptime") }
func BenchmarkFig6NodeFaaSdom(b *testing.B)    { benchExperiment(b, "fig6") }
func BenchmarkFig7PythonFaaSdom(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFig9RealWorld(b *testing.B)      { benchExperiment(b, "fig9") }
func BenchmarkFig10Consolidation(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11FactorPerf(b *testing.B)    { benchExperiment(b, "fig11") }
func BenchmarkFig12FactorMemory(b *testing.B)  { benchExperiment(b, "fig12") }

// Extension experiments (beyond the paper's figures).
func BenchmarkWildTrace(b *testing.B)          { benchExperiment(b, "wild") }
func BenchmarkAblationREAP(b *testing.B)       { benchExperiment(b, "reap") }
func BenchmarkAblationSnapBudget(b *testing.B) { benchExperiment(b, "snapbudget") }
func BenchmarkAblationDeopt(b *testing.B)      { benchExperiment(b, "deopt") }
func BenchmarkClusterScale(b *testing.B)       { benchExperiment(b, "scale") }

// --- Microbenchmarks of the mechanisms under the figures ---

// BenchmarkFireworksInvoke measures the full Fireworks invoke path
// (queue produce, snapshot restore, netns setup, param fetch, JITted
// execution) and reports the virtual latency as a custom metric.
func BenchmarkFireworksInvoke(b *testing.B) {
	env := platform.NewEnv(platform.EnvConfig{})
	fw := core.New(env, core.Options{})
	w := workloads.Fact(runtime.LangNode)
	if _, err := fw.Install(w.Function); err != nil {
		b.Fatal(err)
	}
	params := platform.MustParams(map[string]any{"n": 9999991, "rounds": 1})
	b.ResetTimer()
	var virtual int64
	for i := 0; i < b.N; i++ {
		inv, err := fw.Invoke(w.Name, params, platform.InvokeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		virtual += int64(inv.Breakdown.Total())
	}
	b.ReportMetric(float64(virtual)/float64(b.N), "ns_virtual/op")
}

// BenchmarkFireworksWarmResumeInvoke measures the opt-in warm-pool
// path: after the first request seeds the pool, every iteration
// warm-resumes the same paused clone instead of restoring the snapshot
// — the direct comparison point for BenchmarkFireworksInvoke's
// restore-per-request default.
func BenchmarkFireworksWarmResumeInvoke(b *testing.B) {
	env := platform.NewEnv(platform.EnvConfig{})
	fw := core.New(env, core.Options{WarmPool: true})
	w := workloads.Fact(runtime.LangNode)
	if _, err := fw.Install(w.Function); err != nil {
		b.Fatal(err)
	}
	params := platform.MustParams(map[string]any{"n": 9999991, "rounds": 1})
	// Seed the pool so every timed iteration hits the warm path.
	if _, err := fw.Invoke(w.Name, params, platform.InvokeOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var virtual int64
	for i := 0; i < b.N; i++ {
		inv, err := fw.Invoke(w.Name, params, platform.InvokeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		virtual += int64(inv.Breakdown.Total())
	}
	b.StopTimer()
	if got := env.Metrics.Counter("fireworks_warm_resume_total").Value(); got < int64(b.N) {
		b.Fatalf("warm resumes = %d, want >= %d (pool missed)", got, b.N)
	}
	b.ReportMetric(float64(virtual)/float64(b.N), "ns_virtual/op")
}

// BenchmarkFirecrackerColdInvoke is the baseline the 133x claim is
// measured against.
func BenchmarkFirecrackerColdInvoke(b *testing.B) {
	env := platform.NewEnv(platform.EnvConfig{})
	p := platform.NewFirecracker(env, platform.FCNoSnapshot)
	w := workloads.Fact(runtime.LangNode)
	if _, err := p.Install(w.Function); err != nil {
		b.Fatal(err)
	}
	params := platform.MustParams(map[string]any{"n": 9999991, "rounds": 1})
	b.ResetTimer()
	var virtual int64
	for i := 0; i < b.N; i++ {
		inv, err := p.Invoke(w.Name, params, platform.InvokeOptions{Mode: platform.ModeCold})
		if err != nil {
			b.Fatal(err)
		}
		virtual += int64(inv.Breakdown.Total())
		b.StopTimer()
		if err := p.Remove(w.Name); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Install(w.Function); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(virtual)/float64(b.N), "ns_virtual/op")
}

// BenchmarkInterpreter and BenchmarkJIT measure the two FaaSLang
// execution tiers on the same hot loop (real wall-clock speed of the
// simulator itself).
const hotLoopSrc = `
func hot(n) {
  let total = 0;
  let i = 0;
  while (i < n) {
    total = total + i * i;
    i = i + 1;
  }
  return total;
}
`

func setupTier(b *testing.B, compiled bool) (*vm.VM, *bytecode.Closure) {
	b.Helper()
	mod, err := bytecode.CompileSource(hotLoopSrc)
	if err != nil {
		b.Fatal(err)
	}
	v := vm.New(nil)
	engine := jit.NewEngine(jit.Config{})
	v.JIT = engine
	if _, err := v.RunModule(mod); err != nil {
		b.Fatal(err)
	}
	cl := v.Globals["hot"].(*bytecode.Closure)
	if compiled {
		engine.Compile(cl.Fn, nil)
	}
	return v, cl
}

func BenchmarkInterpreterTier(b *testing.B) {
	v, cl := setupTier(b, false)
	args := []lang.Value{int64(1000)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.CallValue(cl, args); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJITTier(b *testing.B) {
	v, cl := setupTier(b, true)
	args := []lang.Value{int64(1000)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.CallValue(cl, args); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotRestore isolates the hypervisor restore path.
func BenchmarkSnapshotRestore(b *testing.B) {
	env := platform.NewEnv(platform.EnvConfig{})
	fw := core.New(env, core.Options{})
	w := workloads.NetLatency(runtime.LangNode)
	if _, err := fw.Install(w.Function); err != nil {
		b.Fatal(err)
	}
	snap, err := env.Snaps.Get(w.Name)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock := vclock.New()
		vm_, err := env.HV.Restore(snap, vmm.RestoreOptions{}, clock)
		if err != nil {
			b.Fatal(err)
		}
		if err := vm_.Stop(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestoreDelta measures pulling an evicted image back from
// remote storage two ways: "flat" is the faithful pre-chunking arm
// (no local pool to delta against — every byte of the image moves, as
// the store did before content addressing), "delta" transfers only the
// chunks missing from the local pool, which still holds the shared
// base-runtime image. Both report the deterministic virtual fetch cost
// and the bytes moved; benchgate derives the speedup and bytes ratio.
func BenchmarkRestoreDelta(b *testing.B) {
	w := workloads.NetLatency(runtime.LangNode)
	setup := func(b *testing.B) *platform.Env {
		b.Helper()
		env := platform.NewEnv(platform.EnvConfig{RemoteSnapshotStorage: true})
		fw := core.New(env, core.Options{})
		if _, err := fw.Install(w.Function); err != nil {
			b.Fatal(err)
		}
		// Evict the function image; the shared base stays resident.
		env.Snaps.Remove(w.Name)
		return env
	}
	b.Run("flat", func(b *testing.B) {
		env := setup(b)
		var virtual int64
		var moved uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clock := vclock.New()
			snap, err := env.RemoteSnaps.Fetch(w.Name, clock)
			if err != nil {
				b.Fatal(err)
			}
			virtual += int64(clock.Now())
			moved = snap.TotalBytes()
		}
		b.ReportMetric(float64(virtual)/float64(b.N), "ns_virtual/op")
		b.ReportMetric(float64(moved), "vbytes/op")
	})
	b.Run("delta", func(b *testing.B) {
		env := setup(b)
		var virtual int64
		var moved uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clock := vclock.New()
			snap, err := env.RemoteSnaps.FetchTraced(w.Name, env.Snaps, clock, nil)
			if err != nil {
				b.Fatal(err)
			}
			virtual += int64(clock.Now())
			moved = chunk.BytesOf(env.Snaps.MissingChunks(snap.Manifest().Chunks()))
		}
		b.ReportMetric(float64(virtual)/float64(b.N), "ns_virtual/op")
		b.ReportMetric(float64(moved), "vbytes/op")
	})
}

// BenchmarkPrefetchReplay measures the hypervisor restore path with and
// without a recorded working set: "demand" pages the resident set in
// fault by fault, "replay" prefetches the chunks and pages the first
// restore recorded (REAP's record-and-replay applied to post-JIT
// snapshots). Virtual restore cost is deterministic; benchgate derives
// the replay speedup.
func BenchmarkPrefetchReplay(b *testing.B) {
	env := platform.NewEnv(platform.EnvConfig{})
	fw := core.New(env, core.Options{REAPPrefetch: true})
	w := workloads.Fact(runtime.LangNode)
	if _, err := fw.Install(w.Function); err != nil {
		b.Fatal(err)
	}
	// The first invoke demand-pages and records the working set.
	params := platform.MustParams(map[string]any{"n": 9999991, "rounds": 1})
	if _, err := fw.Invoke(w.Name, params, platform.InvokeOptions{}); err != nil {
		b.Fatal(err)
	}
	snap, err := env.Snaps.Get(w.Name)
	if err != nil {
		b.Fatal(err)
	}
	rec := snap.WorkingSet()
	if rec == nil {
		b.Fatal("first invoke left no working-set record")
	}
	restore := func(b *testing.B, opts vmm.RestoreOptions) {
		b.Helper()
		var virtual int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clock := vclock.New()
			v, err := env.HV.Restore(snap, opts, clock)
			if err != nil {
				b.Fatal(err)
			}
			virtual += int64(clock.Now())
			b.StopTimer()
			if err := v.Stop(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(virtual)/float64(b.N), "ns_virtual/op")
	}
	b.Run("demand", func(b *testing.B) { restore(b, vmm.RestoreOptions{}) })
	b.Run("replay", func(b *testing.B) { restore(b, vmm.RestoreOptions{Prefetch: rec}) })
}

// BenchmarkPSSAccounting stresses the page-sharing arithmetic behind
// Figures 10 and 12: map + dirty + PSS over many spaces.
func BenchmarkPSSAccounting(b *testing.B) {
	env := platform.NewEnv(platform.EnvConfig{})
	region := env.Mem.NewRegion("bench", "heap", 4096)
	spaces := make([]spaceLike, 0, 64)
	for i := 0; i < 64; i++ {
		s := env.Mem.NewSpace("s")
		s.MapRegion(region)
		s.DirtyPages(region, i*8)
		spaces = append(spaces, s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		for _, s := range spaces {
			sum += s.PSS()
		}
		if sum <= 0 {
			b.Fatal("no PSS")
		}
	}
}

type spaceLike interface{ PSS() float64 }

// BenchmarkDirtyPages is one Figure 10 fill and drain of the CoW fault
// path: 72 clones map one shared 512 MiB snapshot region, each
// range-dirties the 120 MiB a long-running clone sustains, and then all
// of them are freed. It reports the CoW faults per op alongside the
// host cost.
func BenchmarkDirtyPages(b *testing.B) {
	const clones = 72
	host := mem.NewHost(64<<30, 0.6)
	region := host.NewRegion("snap", mem.KindHeap, mem.PagesFor(512<<20))
	prefix := mem.PagesFor(120 << 20)
	spaces := make([]*mem.Space, clones)
	var faults int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range spaces {
			spaces[j] = host.NewSpace("clone")
			spaces[j].MapRegion(region)
			faults += spaces[j].DirtyPages(region, prefix)
		}
		for _, s := range spaces {
			s.Free()
		}
	}
	b.StopTimer()
	if host.Used() != 0 {
		b.Fatalf("used after drain = %d", host.Used())
	}
	b.ReportMetric(float64(faults)/float64(b.N), "faults/op")
}

// --- Harness contention benchmarks (sharded vs flat-lock baseline) ---
//
// These stress the simulator's own hot paths under b.RunParallel,
// comparing the sharded packages against faithful copies of the
// pre-shard layouts: a registry whose every lookup takes one global
// RWMutex read-lock, and a journal whose append, trace-ID, and span-ID
// paths all funnel through one mutex. The copies live below
// (flatLockRegistry, flatLockJournal) so the baseline stays measurable
// after the real packages moved on. cmd/benchgate records both numbers
// in BENCH_simharness.json and gates the sharded/flat ratio, so a
// refactor that quietly reintroduces a global lock fails CI.

// flatLockRegistry is the pre-shard metrics registry: three maps
// behind one RWMutex, every instrument lookup paying a read-lock
// acquire/release on a shared cache line. Instrument internals match
// internal/metrics (atomic counters and gauges, mutexed histogram), so
// the benchmark isolates the lookup path — the part the shards and
// lock-free reads replaced.
type flatLockRegistry struct {
	mu         sync.RWMutex
	counters   map[string]*flatCounter
	gauges     map[string]*flatGauge
	histograms map[string]*flatHistogram
}

type flatCounter struct{ v atomic.Int64 }

func (c *flatCounter) Inc() { c.v.Add(1) }

type flatGauge struct{ v atomic.Int64 }

func (g *flatGauge) Add(d int64) { g.v.Add(d) }

type flatHistogram struct {
	mu      sync.Mutex
	bounds  []float64
	counts  []uint64
	count   uint64
	sum     float64
	min     float64
	max     float64
	samples []float64 // ring of the most recent flatMaxSamples
	next    int
}

const flatMaxSamples = 1 << 16 // matches internal/metrics maxSamples

func (h *flatHistogram) ObserveDuration(d time.Duration) {
	v := float64(d)
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if len(h.samples) < flatMaxSamples {
		h.samples = append(h.samples, v)
	} else {
		h.samples[h.next] = v
		h.next = (h.next + 1) % flatMaxSamples
	}
}

func newFlatLockRegistry() *flatLockRegistry {
	return &flatLockRegistry{
		counters:   make(map[string]*flatCounter),
		gauges:     make(map[string]*flatGauge),
		histograms: make(map[string]*flatHistogram),
	}
}

func (r *flatLockRegistry) Counter(name string) *flatCounter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &flatCounter{}
		r.counters[name] = c
	}
	return c
}

func (r *flatLockRegistry) Gauge(name string) *flatGauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &flatGauge{}
		r.gauges[name] = g
	}
	return g
}

func (r *flatLockRegistry) Histogram(name string) *flatHistogram {
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		bounds := metrics.DefaultLatencyBuckets()
		h = &flatHistogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
		r.histograms[name] = h
	}
	return h
}

// BenchmarkMetricsParallel hammers registry lookups the way a fleet of
// nodes does — per-node labeled counters and histograms resolved by
// name on every operation. "flat" is the pre-shard global-RWMutex
// registry; "sharded" is internal/metrics with its lock-free striped
// lookups.
func BenchmarkMetricsParallel(b *testing.B) {
	const nodes = 64
	counterNames := make([]string, nodes)
	histNames := make([]string, nodes)
	for i := range counterNames {
		node := fmt.Sprintf("node-%02d", i)
		counterNames[i] = metrics.Name("cluster_node_invocations_total", "node", node)
		histNames[i] = metrics.Name("cluster_place_duration", "node", node)
	}
	b.Run("flat", func(b *testing.B) {
		reg := newFlatLockRegistry()
		for i := range counterNames {
			reg.Counter(counterNames[i]).Inc()
			reg.Histogram(histNames[i]).ObserveDuration(time.Microsecond)
		}
		var gid atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := int(gid.Add(1)) * 7919 // spread goroutines across names
			for pb.Next() {
				reg.Counter(counterNames[i%nodes]).Inc()
				reg.Gauge(counterNames[(i+1)%nodes]).Add(1)
				if i%8 == 0 {
					reg.Histogram(histNames[i%nodes]).ObserveDuration(time.Duration(i))
				}
				i++
			}
		})
	})
	b.Run("sharded", func(b *testing.B) {
		reg := metrics.NewRegistry()
		for i := range counterNames {
			reg.Counter(counterNames[i]).Inc()
			reg.Histogram(histNames[i]).ObserveDuration(time.Microsecond)
		}
		var gid atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := int(gid.Add(1)) * 7919
			for pb.Next() {
				reg.Counter(counterNames[i%nodes]).Inc()
				reg.Gauge(counterNames[(i+1)%nodes]).Add(1)
				if i%8 == 0 {
					reg.Histogram(histNames[i%nodes]).ObserveDuration(time.Duration(i))
				}
				i++
			}
		})
	})
}

// flatLockJournal is the pre-shard event journal: one mutex guards the
// ring, the sequence counter, and both ID allocators, so every span
// begin pays two lock round-trips (span ID + append) on the same
// mutex every other goroutine is fighting for.
type flatLockJournal struct {
	mu        sync.Mutex
	buf       []events.Event
	start, n  int
	seq       uint64
	nextTrace uint64
	nextSpan  uint64
}

func (j *flatLockJournal) append(e events.Event) {
	j.mu.Lock()
	j.seq++
	e.Seq = j.seq
	if j.n == len(j.buf) {
		j.start = (j.start + 1) % len(j.buf)
		j.n--
	}
	j.buf[(j.start+j.n)%len(j.buf)] = e
	j.n++
	j.mu.Unlock()
}

func (j *flatLockJournal) newTraceID() events.TraceID {
	j.mu.Lock()
	j.nextTrace++
	id := events.TraceID(j.nextTrace)
	j.mu.Unlock()
	return id
}

func (j *flatLockJournal) newSpanID() events.SpanID {
	j.mu.Lock()
	j.nextSpan++
	id := events.SpanID(j.nextSpan)
	j.mu.Unlock()
	return id
}

// flatScope mirrors the pre-shard events.Scope (heap stack slice, no
// inline buffer) over flatLockJournal.
type flatScope struct {
	j     *flatLockJournal
	trace events.TraceID
	stack []events.SpanID
	node  string
}

func (j *flatLockJournal) newScope(component, name string, ts time.Duration) *flatScope {
	s := &flatScope{j: j, trace: j.newTraceID()}
	s.begin(component, name, ts)
	return s
}

func (s *flatScope) parent() events.SpanID {
	if len(s.stack) == 0 {
		return 0
	}
	return s.stack[len(s.stack)-1]
}

func (s *flatScope) begin(component, name string, ts time.Duration) {
	id := s.j.newSpanID()
	s.j.append(events.Event{
		TS: ts, Trace: s.trace, Span: id, Parent: s.parent(), Kind: events.KindBegin,
		Component: component, Name: name, Node: s.node,
	})
	s.stack = append(s.stack, id)
}

func (s *flatScope) instant(component, name string, ts time.Duration) {
	id := s.j.newSpanID()
	s.j.append(events.Event{
		TS: ts, Trace: s.trace, Span: id, Parent: s.parent(), Kind: events.KindInstant,
		Component: component, Name: name, Node: s.node,
	})
}

func (s *flatScope) close(ts time.Duration) {
	for len(s.stack) > 0 {
		id := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		s.j.append(events.Event{
			TS: ts, Trace: s.trace, Span: id, Parent: s.parent(), Kind: events.KindEnd,
			Node: s.node,
		})
	}
}

// BenchmarkJournalParallel appends per-invocation traces from many
// nodes into one shared journal — the cluster storm access pattern.
// "flat" is the pre-shard single-mutex journal (IDs and appends all on
// one lock); "sharded" is internal/events with atomic ID allocation
// and per-node ring stripes.
func BenchmarkJournalParallel(b *testing.B) {
	const nodes = 16
	nodeNames := make([]string, nodes)
	for i := range nodeNames {
		nodeNames[i] = fmt.Sprintf("node-%02d", i)
	}
	b.Run("flat", func(b *testing.B) {
		j := &flatLockJournal{buf: make([]events.Event, events.DefaultCapacity)}
		var gid atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			g := int(gid.Add(1))
			node := nodeNames[g%nodes]
			i := 0
			for pb.Next() {
				sc := j.newScope("core", "invoke", time.Duration(i))
				sc.node = node
				sc.instant("vmm", "restore", time.Duration(i))
				sc.close(time.Duration(i + 1))
				i++
			}
		})
	})
	b.Run("sharded", func(b *testing.B) {
		j := events.NewJournal(events.DefaultCapacity)
		var gid atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			g := int(gid.Add(1))
			node := nodeNames[g%nodes]
			i := 0
			for pb.Next() {
				sc := j.NewScope("core", "invoke", time.Duration(i))
				sc.SetNode(node)
				sc.Instant("vmm", "restore", time.Duration(i))
				sc.Close(time.Duration(i + 1))
				i++
			}
		})
	})
}

// BenchmarkMsgbusBatch compares the per-record produce/consume path
// against the batched API on the same 64-record workload: one topic
// per iteration (the invoke path's per-instance topic lifecycle),
// 64 records in, 64 records out.
func BenchmarkMsgbusBatch(b *testing.B) {
	const batch = 64
	value := []byte(`{"n":9999991,"rounds":1}`)
	b.Run("single", func(b *testing.B) {
		broker := msgbus.NewBroker()
		for i := 0; i < b.N; i++ {
			if err := broker.CreateTopic("t", 1); err != nil {
				b.Fatal(err)
			}
			for k := 0; k < batch; k++ {
				if _, _, err := broker.ProduceAt("t", "k", value, time.Duration(k)); err != nil {
					b.Fatal(err)
				}
			}
			for k := 0; k < batch; k++ {
				if _, err := broker.ConsumeAt("t", 0, int64(k)); err != nil {
					b.Fatal(err)
				}
			}
			broker.DeleteTopic("t")
		}
		b.ReportMetric(float64(batch), "records/op")
	})
	b.Run("batch", func(b *testing.B) {
		broker := msgbus.NewBroker()
		recs := make([]msgbus.BatchRecord, batch)
		for k := range recs {
			recs[k] = msgbus.BatchRecord{Key: "k", Value: value}
		}
		for i := 0; i < b.N; i++ {
			if err := broker.CreateTopic("t", 1); err != nil {
				b.Fatal(err)
			}
			if _, err := broker.ProduceBatchAt("t", recs, 0); err != nil {
				b.Fatal(err)
			}
			if msgs, err := broker.ConsumeFrom("t", 0, 0, batch); err != nil || len(msgs) != batch {
				b.Fatalf("consumed %d, err %v", len(msgs), err)
			}
			broker.DeleteTopic("t")
		}
		b.ReportMetric(float64(batch), "records/op")
	})
}

// BenchmarkWorkflowChain compares the hand-wired Alexa chain (the
// frontend function dispatching to a skill via nested invoke()) against
// the same two-function chain run declaratively by the workflow engine
// (classifier step, conditional branch, bus-delivered step messages).
// Both arms report the deterministic virtual end-to-end latency;
// benchgate derives workflow_chain_speedup (hand-wired ÷ declarative)
// and floors it — the declarative engine must stay in the same virtual
// cost envelope as the imperative chain it replaces.
func BenchmarkWorkflowChain(b *testing.B) {
	req := map[string]any{"text": "alexa tell me a fun fact"}
	b.Run("handwired", func(b *testing.B) {
		env := platform.NewEnv(platform.EnvConfig{})
		fw := core.New(env, core.Options{})
		apps := workloads.AlexaSkills()
		for i := len(apps) - 1; i >= 0; i-- {
			if _, err := fw.Install(apps[i].Function); err != nil {
				b.Fatal(err)
			}
		}
		params := platform.MustParams(req)
		var virtual int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inv, err := fw.Invoke(workloads.NameAlexaFrontend, params, platform.InvokeOptions{})
			if err != nil {
				b.Fatal(err)
			}
			virtual += int64(inv.Breakdown.Total())
		}
		b.ReportMetric(float64(virtual)/float64(b.N), "ns_virtual/op")
	})
	b.Run("declarative", func(b *testing.B) {
		env := platform.NewEnv(platform.EnvConfig{})
		fw := core.New(env, core.Options{})
		apps := append(workloads.AlexaSkills(), workloads.WorkflowFunctions()...)
		for i := len(apps) - 1; i >= 0; i-- {
			if _, err := fw.Install(apps[i].Function); err != nil {
				b.Fatal(err)
			}
		}
		eng := workflow.New(env.Bus, env.Events, env.Metrics, fw, workflow.Options{})
		if err := eng.Register(workloads.AlexaWorkflow()); err != nil {
			b.Fatal(err)
		}
		var virtual int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run, err := eng.Run("alexa", req, 0)
			if err != nil {
				b.Fatal(err)
			}
			if run.Status != workflow.RunCompleted {
				b.Fatalf("run status %q", run.Status)
			}
			virtual += int64(run.Invocation.Breakdown.Total())
		}
		b.ReportMetric(float64(virtual)/float64(b.N), "ns_virtual/op")
	})
}

// --- Insight engine (critical-path analysis cost) ---

// benchInsightJournal builds a deterministic synthetic journal of just
// over 10k events: invocation-shaped traces (gateway → cluster → core →
// six stages, one bus instant) with varied stage costs.
func benchInsightJournal() []events.Event {
	j := events.NewJournal(0)
	ts := time.Duration(0)
	const traces = 530 // 19 events each → ~10k
	for i := 0; i < traces; i++ {
		sc := j.NewScope("gateway", "POST /invoke", ts)
		sc.Begin("cluster", "request", ts)
		sc.SetNode(fmt.Sprintf("node-%02d", i%3))
		sc.Begin("core", "invoke", ts)
		for _, stage := range []string{"snapshot-get", "restore-or-reuse", "netns", "runtime-revive", "execute", "release"} {
			sc.Begin("core", stage, ts)
			ts += time.Duration(50+i%97) * time.Microsecond
			if stage == "execute" {
				sc.Instant("msgbus", "produce", ts, events.A("topic", "bench"))
			}
			sc.End(ts)
		}
		sc.End(ts)
		sc.End(ts)
		sc.Close(ts)
	}
	return j.Events()
}

// BenchmarkCriticalPath measures full insight analysis — span-tree
// reconstruction, critical paths, blame tables, and the service graph —
// over a 10k-event journal.
func BenchmarkCriticalPath(b *testing.B) {
	evs := benchInsightJournal()
	var traces int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := insight.Analyze(evs)
		traces = rep.TraceCount
	}
	b.ReportMetric(float64(len(evs)), "events/op")
	if traces != 530 {
		b.Fatalf("analyzed %d traces, want 530", traces)
	}
}

// benchStormJournal replays a deterministic storm of 256 small traces
// into j: one root scope and one child span each, an error attr on
// every 37th trace, identical per-trace latencies so the tail
// sampler's latency-outlier policy stays quiet and only the error and
// probabilistic policies decide keeps.
func benchStormJournal(j *events.Journal) {
	var ts time.Duration
	for i := 0; i < 256; i++ {
		sc := j.NewScope("gateway", "invoke", ts, events.A("fn", "bench"))
		sc.SetNode(fmt.Sprintf("node-%d", i%4))
		sc.Begin("core", "execute", ts)
		ts += 120 * time.Microsecond
		if i%37 == 0 {
			sc.Instant("core", "result", ts, events.A("error", "boom"))
		}
		sc.End(ts)
		sc.Close(ts)
		ts += 10 * time.Microsecond
	}
}

// BenchmarkTailSampling exports the storm journal as NDJSON with and
// without the tail sampler armed, reporting the export size as
// vbytes/op. benchgate derives tail_sampling_reduction = full/sampled
// and enforces the >=5x byte-reduction claim of the telem experiment
// at microbenchmark granularity.
func BenchmarkTailSampling(b *testing.B) {
	run := func(b *testing.B, armed bool) {
		var exported int
		for i := 0; i < b.N; i++ {
			j := events.NewJournal(1 << 15)
			var tail *telemetry.TailSampler
			if armed {
				tail = telemetry.New(telemetry.Config{Seed: 1, KeepRate: 0.05})
				tail.Attach(j, metrics.NewRegistry())
			}
			benchStormJournal(j)
			if tail != nil {
				tail.FlushAll()
				if st := tail.Stats(); st.DecidedTraces != 256 {
					b.Fatalf("decided %d traces, want 256", st.DecidedTraces)
				}
			}
			var buf bytes.Buffer
			if err := events.WriteNDJSON(&buf, j.Events()); err != nil {
				b.Fatal(err)
			}
			exported = buf.Len()
		}
		if exported == 0 {
			b.Fatal("empty export")
		}
		b.ReportMetric(float64(exported), "vbytes/op")
	}
	b.Run("full", func(b *testing.B) { run(b, false) })
	b.Run("sampled", func(b *testing.B) { run(b, true) })
}
