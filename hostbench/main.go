// Command hostbench measures the simulator's host cost — wall time, CPU
// and Go allocations per operation — on three closed-loop workloads,
// end to end and layer by layer:
//
//	mix    FaaSdom functions on a 2-node cluster, 2 clients: guest execution
//	pack   Fig-10 fill/drain cycles on one host, 1 client: mem page accounting
//	storm  chaos storm with telemetry and operator polls, 1 client: observability
//
// Run it from the repository root through its build script:
//
//	bash hostbench/run.sh --workload mix --seed 1 --seconds 20 --trace 0
//
// --workload all runs the three in turn. With --trace 0 a run prints
// the end-to-end metrics. With --trace 1 it switches span recording on
// and off in alternating slices, takes a CPU profile of the whole run,
// and prints per-layer span times, counts, CPU shares by module, and
// the tracing overhead (throughput of the traced slices against the
// untraced ones). Every run checks the outputs and exits 1 if a check
// fails. The last line of standard output is one JSON object with the
// result. recorded.json holds the reference outputs the checks compare
// against; baseline.json holds reference numbers with the machine they
// were measured on, and each workload's predicted layer effects.
package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// bench is one workload's environment, built for one seed.
type bench interface {
	// warm runs the workload's fixed seeded prefix before timing starts
	// and returns the digests of its outputs, keyed by kind.
	warm() (map[string]string, error)
	// measure runs the closed loop until deadline, recording every op.
	measure(deadline time.Time, ph *phase) error
	// check verifies what the whole run produced.
	check() error
	// counts reads the per-layer counters (cumulative since setup).
	counts() map[string]float64
}

// workload builds a bench for a seed; tr times the calls it makes.
type workload func(seed uint64, rec *recorded, tr *tracer) (bench, error)

var benches = map[string]workload{
	"mix":   newMix,
	"pack":  newPack,
	"storm": newStorm,
}

//go:embed recorded.json
var recordedJSON []byte

// recorded holds the reference outputs every run checks against.
type recorded struct {
	DefaultSeed uint64 `json:"default_seed"`
	HeldOutSeed uint64 `json:"held_out_seed"`
	// Digests maps workload -> seed -> digest kind -> hex SHA-256.
	Digests map[string]map[string]map[string]string `json:"digests"`
	// PackVMsToSwap is how many VMs of each kind fill the pack host to
	// its swap threshold; it does not depend on the seed.
	PackVMsToSwap map[string]int `json:"pack_vms_to_swap"`
}

func loadRecorded() (*recorded, error) {
	var r recorded
	if err := json.Unmarshal(recordedJSON, &r); err != nil {
		return nil, fmt.Errorf("recorded.json: %w", err)
	}
	return &r, nil
}

// checkDigests compares a seed's digests with the recorded ones; a
// seed with none recorded passes.
func (r *recorded) checkDigests(workload string, seed uint64, got map[string]string) error {
	want, ok := r.Digests[workload][strconv.FormatUint(seed, 10)]
	if !ok {
		return nil
	}
	for kind, w := range want {
		if got[kind] != w {
			return fmt.Errorf("%s seed %d: %s digest %s, recorded %s", workload, seed, kind, got[kind], w)
		}
	}
	return nil
}

// phase collects one measured stretch of a run. In a traced run the
// tracer toggles on and off in alternating slices of at least
// traceSlice, each ending at a unit boundary of the workload; an op
// counts as traced when it starts with the tracer on.
type phase struct {
	tr *tracer // nil when untraced

	mu         sync.Mutex
	latMs      []float64
	tracedOps  int
	failed     int
	sliceStart time.Time

	elapsed        time.Duration
	tracedTime     time.Duration
	cpu            time.Duration
	mallocs, bytes uint64
	peak           uint64
}

// lane holds one client's samples until it hands them to the phase.
type lane struct {
	ph        *phase
	latMs     []float64
	tracedOps int
	failed    int
}

func (ph *phase) lane() *lane { return &lane{ph: ph} }

// op times one operation; an op that returns an error counts as failed.
func (l *lane) op(fn func() error) error {
	traced := l.ph.tr != nil && l.ph.tr.on.Load()
	t := time.Now()
	err := fn()
	l.latMs = append(l.latMs, float64(time.Since(t))/1e6)
	if traced {
		l.tracedOps++
	}
	if err != nil {
		l.failed++
	}
	return err
}

func (ph *phase) merge(l *lane) {
	ph.mu.Lock()
	ph.latMs = append(ph.latMs, l.latMs...)
	ph.tracedOps += l.tracedOps
	ph.failed += l.failed
	ph.mu.Unlock()
}

func (ph *phase) ops() int { return len(ph.latMs) }

func (ph *phase) throughput() float64 { return float64(ph.ops()) / ph.elapsed.Seconds() }

// tracingOverhead compares the throughput of the traced slices with
// that of the untraced ones: 0.05 means tracing cost 5% of throughput.
// A run too short to hold ops of both kinds reports 0.
func (ph *phase) tracingOverhead() float64 {
	untraced := ph.ops() - ph.tracedOps
	if ph.tracedOps == 0 || untraced == 0 {
		return 0
	}
	on := float64(ph.tracedOps) / ph.tracedTime.Seconds()
	off := float64(untraced) / (ph.elapsed - ph.tracedTime).Seconds()
	return 1 - on/off
}

// traceSlice is how long the tracer stays on, then off, at least, in a
// traced run.
const traceSlice = 250 * time.Millisecond

// boundary marks the end of a unit of work (an op, or a fill cycle):
// the point where a traced run may switch the tracer on or off.
func (ph *phase) boundary() {
	if ph.tr == nil {
		return
	}
	ph.mu.Lock()
	defer ph.mu.Unlock()
	now := time.Now()
	if now.Sub(ph.sliceStart) < traceSlice {
		return
	}
	if ph.tr.on.Load() {
		ph.tracedTime += now.Sub(ph.sliceStart)
		ph.tr.disable()
	} else {
		ph.tr.enable()
	}
	ph.sliceStart = now
}

// runPhase measures b for d and returns what it recorded. With a
// tracer it alternates traced and untraced slices.
func runPhase(b bench, d time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{tr: tr}
	goruntime.GC()
	var ms0, ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	stopHeap := heapPeak()
	t0 := time.Now()
	ph.sliceStart = t0
	err := b.measure(t0.Add(d), ph)
	ph.elapsed = time.Since(t0)
	if tr != nil && tr.on.Load() {
		ph.tracedTime += time.Since(ph.sliceStart)
		tr.disable()
	}
	ph.cpu = cpuTime() - cpu0
	ph.peak = stopHeap()
	goruntime.ReadMemStats(&ms1)
	ph.mallocs = ms1.Mallocs - ms0.Mallocs
	ph.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	if err == nil && ph.ops() == 0 {
		err = errors.New("no operation completed")
	}
	return ph, err
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapPeak samples the live Go heap (as of the last GC) until the
// returned stop func is called, which returns the peak in bytes.
func heapPeak() (stop func() uint64) {
	sample := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() uint64 {
		rtmetrics.Read(sample)
		if sample[0].Value.Kind() != rtmetrics.KindUint64 {
			return 0
		}
		return sample[0].Value.Uint64()
	}
	done := make(chan struct{})
	result := make(chan uint64, 1)
	go func() {
		peak := read()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				if v := read(); v > peak {
					peak = v
				}
				result <- peak
				return
			case <-tick.C:
				if v := read(); v > peak {
					peak = v
				}
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-result
	}
}

// digestDurations hashes a sequence of virtual latencies.
func digestDurations(ds []time.Duration) string {
	h := sha256.New()
	var b [8]byte
	for _, d := range ds {
		binary.LittleEndian.PutUint64(b[:], uint64(d))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes annotate metrics in the human-readable lines: sample
	// counts, and samples beyond a percentile.
	notes map[string]string
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: mix, pack, storm, or all to run each in turn")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = sortedKeys(benches)
	}
	for _, n := range names {
		if _, ok := benches[n]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
			fmt.Fprintf(os.Stderr, "hostbench: need --workload mix|pack|storm|all, --seconds >= 1, --trace 0|1\n")
			return 2
		}
	}
	rec, err := loadRecorded()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		return 1
	}
	code := 0
	for _, n := range names {
		if c := runOne(n, rec, *seed, time.Duration(*seconds)*time.Second, *trace == 1); c != 0 {
			code = c
		}
	}
	return code
}

// runOne runs one workload and prints its result; it returns the exit
// code.
func runOne(name string, rec *recorded, seed uint64, d time.Duration, traced bool) int {
	fmt.Printf("# hostbench %s seed=%d seconds=%v traced=%v GOMAXPROCS=%d NumCPU=%d %s %s/%s\n",
		name, seed, d.Seconds(), traced, goruntime.GOMAXPROCS(0), goruntime.NumCPU(),
		goruntime.Version(), goruntime.GOOS, goruntime.GOARCH)
	res, err := measureRun(name, benches[name], rec, seed, d, traced)
	if res == nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		return 1
	}
	if err != nil {
		fmt.Printf("# CHECK FAILED: %v\n", err)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", jerr)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// minSetupSeconds is how long a run spends on set-ups at least: a
// cheap set-up repeats until then, so the median setup_s is steady.
const minSetupSeconds = 2.0

// measureRun sets the workload up for the two recorded seeds and checks
// their digests, repeats cheap set-ups, then sets up and measures the
// run's seed. setup_s is the median of all set-ups. It returns a nil
// result when it could not measure at all, and a result with Correct
// false plus the error when a check failed.
func measureRun(name string, mk workload, rec *recorded, seed uint64, d time.Duration, traced bool) (*result, error) {
	var setups []float64
	setup := func(s uint64, tr *tracer) (bench, error) {
		t := time.Now()
		b, err := mk(s, rec, tr)
		if err != nil {
			return nil, fmt.Errorf("setup seed %d: %w", s, err)
		}
		setups = append(setups, time.Since(t).Seconds())
		return b, nil
	}
	for _, s := range []uint64{rec.DefaultSeed, rec.HeldOutSeed} {
		b, err := setup(s, newTracer())
		if err != nil {
			return nil, err
		}
		dg, err := b.warm()
		if err == nil {
			err = rec.checkDigests(name, s, dg)
		}
		if err != nil {
			return failedCheck(), err
		}
	}
	for stats.Mean(setups)*float64(len(setups)) < minSetupSeconds {
		if _, err := setup(seed, newTracer()); err != nil {
			return nil, err
		}
	}
	tr := newTracer()
	if traced {
		tr.enable()
	}
	b, err := setup(seed, tr)
	if err != nil {
		return nil, err
	}
	tr.disable()
	dg, err := b.warm()
	if err == nil {
		err = rec.checkDigests(name, seed, dg)
	}
	if err != nil {
		return failedCheck(), err
	}
	for _, k := range sortedKeys(dg) {
		fmt.Printf("# digest seed=%d %s=%s\n", seed, k, dg[k])
	}

	res := &result{Metrics: make(map[string]metric), notes: make(map[string]string)}
	if !traced {
		ph, err := runPhase(b, d, nil)
		if err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = ph.ops(), ph.failed
		endToEnd(res, ph, setups)
	} else {
		before := b.counts()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		ph, err := runPhase(b, d, tr)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = ph.ops(), ph.failed
		if err := perLayer(res, tr, &prof, before, b.counts(), ph); err != nil {
			return nil, err
		}
		if err := dumpSpans(name, seed, tr); err != nil {
			return nil, err
		}
	}
	if err := b.check(); err != nil {
		res.Correct = false
		return res, err
	}
	res.Correct = true
	printMetrics(res)
	return res, nil
}

// failedCheck is the result of a run stopped by a failed check before
// measuring.
func failedCheck() *result {
	return &result{Correct: false, Attempted: 1, Metrics: map[string]metric{}}
}

// endToEnd fills the end-to-end metrics from an untraced phase.
func endToEnd(res *result, ph *phase, setups []float64) {
	n := float64(ph.ops())
	p99 := stats.Percentile(ph.latMs, 99)
	beyond := 0
	for _, v := range ph.latMs {
		if v > p99 {
			beyond++
		}
	}
	res.Metrics["setup_s"] = metric{stats.Percentile(setups, 50), "s"}
	res.Metrics["throughput_ops_s"] = metric{ph.throughput(), "ops/s"}
	res.Metrics["latency_p50_ms"] = metric{stats.Percentile(ph.latMs, 50), "ms"}
	res.Metrics["latency_p99_ms"] = metric{p99, "ms"}
	res.Metrics["cpu_ms_per_op"] = metric{float64(ph.cpu) / 1e6 / n, "ms"}
	res.Metrics["allocs_per_op"] = metric{float64(ph.mallocs) / n, "count"}
	res.Metrics["alloc_kb_per_op"] = metric{float64(ph.bytes) / 1024 / n, "KiB"}
	res.Metrics["peak_heap_mb"] = metric{float64(ph.peak) / (1 << 20), "MiB"}
	ops := fmt.Sprintf("n=%d ops", ph.ops())
	for _, k := range []string{"throughput_ops_s", "latency_p50_ms", "cpu_ms_per_op", "allocs_per_op", "alloc_kb_per_op"} {
		res.notes[k] = ops
	}
	res.notes["setup_s"] = fmt.Sprintf("median of %d set-ups", len(setups))
	res.notes["latency_p99_ms"] = fmt.Sprintf("%s, %d beyond p99", ops, beyond)
	res.notes["peak_heap_mb"] = fmt.Sprintf("over %.1fs", ph.elapsed.Seconds())
	fmt.Printf("# failed_frac %.4f (%d of %d ops failed)\n", float64(ph.failed)/n, ph.failed, ph.ops())
}

// spanNames are the benchmark's spans, one per public call it times.
var spanNames = []string{
	"cluster.invoke", "core.invoke", "core.install", "platform.firecracker_invoke",
	"platform.firecracker_drain", "vmm.sustain_dirty", "core.stop_instances", "mem.report",
	"workflow.run", "insight.report", "metrics.scrape", "events.export",
	"timeseries.sample", "timeseries.evaluate", "telemetry.flush",
}

// countNames are the per-layer counts and their units. Counters are
// reported per op of the traced run; levels (high water, VMs to swap)
// as read at its end.
var countNames = []struct {
	name, unit string
	level      bool
}{
	{"mem.cow_faults", "1/op", false},
	{"mem.high_water_mb", "MiB", true},
	{"mem.vms_to_swap.fireworks", "count", true},
	{"mem.vms_to_swap.firecracker", "count", true},
	{"snapshot.remote_fetches", "1/op", false},
	{"snapshot.chunks_deduped", "1/op", false},
	{"msgbus.produced", "1/op", false},
	{"events.journal_events", "1/op", false},
	{"events.ndjson_bytes", "B/op", false},
	{"telemetry.traces_kept", "1/op", false},
	{"telemetry.traces_dropped", "1/op", false},
	{"faults.injected", "1/op", false},
	{"faults.retries", "1/op", false},
	{"cluster.failovers", "1/op", false},
	{"workflow.runs_completed", "1/op", false},
}

// perLayer fills the per-layer metrics of a traced phase.
func perLayer(res *result, tr *tracer, prof *bytes.Buffer, before, after map[string]float64, ph *phase) error {
	sum := tr.summary()
	for _, n := range spanNames {
		s := sum[n]
		res.Metrics[n+"_ms"] = metric{s.P50Ms, "ms"}
		res.Metrics[n+"_total_ms"] = metric{s.TotalMs, "ms"}
		res.Metrics[n+"_self_ms"] = metric{s.SelfMs, "ms"}
		for _, m := range []string{n + "_ms", n + "_total_ms", n + "_self_ms"} {
			res.notes[m] = fmt.Sprintf("%d calls", s.Count)
		}
	}
	for _, c := range countNames {
		v := after[c.name]
		if !c.level {
			v = (v - before[c.name]) / float64(ph.ops())
		}
		res.Metrics[c.name] = metric{v, c.unit}
	}
	res.Metrics["traced_run_ops"] = metric{float64(ph.ops()), "count"}
	res.Metrics["tracing_overhead_frac"] = metric{ph.tracingOverhead(), "frac"}
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return err
	}
	var total int64
	for _, s := range samples {
		total += s.weight
	}
	for g, share := range foldShares(samples) {
		res.Metrics["cpu."+g] = metric{share, "frac"}
	}
	for _, g := range cpuGroups() {
		res.notes["cpu."+g] = fmt.Sprintf("of %d profile samples", total)
	}
	return nil
}

// dumpSpans writes the traced run's spans under the build directory.
func dumpSpans(name string, seed uint64, tr *tracer) error {
	dir := os.Getenv("HOSTBENCH_OUT")
	if dir == "" {
		dir = ".bench_build"
	}
	dir = filepath.Join(dir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.ndjson", name, seed)))
	if err != nil {
		return err
	}
	if err := tr.writeSpans(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printMetrics(res *result) {
	for _, k := range sortedKeys(res.Metrics) {
		m := res.Metrics[k]
		fmt.Printf("# %-36s %14.6g %-6s %s\n", k, m.Value, m.Unit, res.notes[k])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// registryCounters maps registry counters to per-layer count names.
var registryCounters = map[string]string{
	"mem_cow_faults_total":          "mem.cow_faults",
	"snapshot_remote_fetches_total": "snapshot.remote_fetches",
	"snapshot_chunks_deduped_total": "snapshot.chunks_deduped",
	"msgbus_produced_total":         "msgbus.produced",
	"events_recorded_total":         "events.journal_events",
	"retries_total":                 "faults.retries",
	"failovers_total":               "cluster.failovers",
}

// registryCounts reads the per-layer counters a metrics registry holds,
// without creating the ones it lacks.
func registryCounts(reg *metrics.Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, c := range reg.Snapshot().Counters {
		if name, ok := registryCounters[c.Name]; ok {
			out[name] = float64(c.Value)
		}
		if strings.HasPrefix(c.Name, "faults_injected_total{") {
			out["faults.injected"] += float64(c.Value)
		}
	}
	return out
}

// clusterCounts reads the per-layer counters a cluster's shared
// registry holds.
func clusterCounts(c *cluster.Cluster) map[string]float64 {
	out := registryCounts(c.Metrics())
	for _, n := range c.Nodes() {
		out["mem.high_water_mb"] = math.Max(out["mem.high_water_mb"], float64(n.Env.Mem.HighWater())/(1<<20))
	}
	return out
}

// rng is a SplitMix64 stream; newRNG derives an independent stream per
// (seed, index), so a request does not depend on which client drew it.
type rng uint64

func newRNG(seed, index uint64) *rng {
	r := rng(seed*0x9E3779B97F4A7C15 ^ (index+1)*0xD1B54A32D192ED03)
	r.next()
	return &r
}

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
