package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/workloads"
)

// pack repeats the Fig-10 consolidation cycle on one host: fill it with
// microVMs until the swap threshold, report memory, drain, refill.
// Fills alternate between retained Fireworks clones of one post-JIT
// snapshot, each dirtying the paper's long-run bytes, and Firecracker
// cold boots. The guest function is trivial, so mem page accounting
// does most of the work three ways: CoW-shared faults, private-page
// population, and the free path on drain. One client keeps the fault
// and fill order deterministic.
const (
	// packHostBytes is the host's memory; the swap threshold is 60% of it.
	packHostBytes = 16 << 30
	// packSustainedDirty is the guest memory a long-running Fireworks
	// clone dirties (the fig10 experiment's calibration).
	packSustainedDirty = 120<<20 + 448<<10
	// packMaxVMs bounds one fill in case the host never swaps.
	packMaxVMs = 1000
	// packWarmVMs is how many VMs of each kind the digested warm-up
	// launches and drains, without filling the host.
	packWarmVMs = 16
)

type packBench struct {
	seed uint64
	tr   *tracer
	env  *platform.Env
	fw   *core.Framework
	fc   platform.Platform
	fn   platform.Function
	// fills counts completed fills; it seeds the next fill's requests.
	fills int
	// vmsToSwap is the VM count of the latest fill of each kind.
	vmsToSwap map[string]int
	want      map[string]int
	err       error
}

func newPack(seed uint64, rec *recorded, tr *tracer) (bench, error) {
	b := &packBench{seed: seed, tr: tr, fn: workloads.Fact(runtime.LangNode).Function,
		vmsToSwap: make(map[string]int), want: rec.PackVMsToSwap}
	b.env = platform.NewEnv(platform.EnvConfig{MemBytes: packHostBytes})
	b.fw = core.New(b.env, core.Options{RetainInstances: true})
	id := tr.begin(0, "core.install")
	_, err := b.fw.Install(b.fn)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	b.fc = platform.NewFirecracker(b.env, platform.FCNoSnapshot)
	if _, err := b.fc.Install(b.fn); err != nil {
		return nil, err
	}
	return b, nil
}

// launch starts one VM of a kind serving request i of the current fill
// and returns the request's virtual latency.
func (b *packBench) launch(l *lane, kind string, i int) (time.Duration, error) {
	r := newRNG(b.seed, uint64(b.fills)<<32|uint64(i))
	n, rounds := 100+r.intn(900), 1+r.intn(2)
	params := platform.MustParams(map[string]any{"n": n, "rounds": rounds})
	var inv *platform.Invocation
	err := l.op(func() error {
		var err error
		if kind == "fireworks" {
			id := b.tr.begin(0, "core.invoke")
			inv, err = b.fw.Invoke(b.fn.Name, params, platform.InvokeOptions{})
			b.tr.end(id)
			if err != nil {
				return err
			}
			instances := b.fw.Instances(b.fn.Name)
			id = b.tr.begin(0, "vmm.sustain_dirty")
			instances[len(instances)-1].SustainDirty(packSustainedDirty)
			b.tr.end(id)
			return nil
		}
		id := b.tr.begin(0, "platform.firecracker_invoke")
		inv, err = b.fc.Invoke(b.fn.Name, params, platform.InvokeOptions{Mode: platform.ModeCold})
		b.tr.end(id)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("pack %s launch %d: %w", kind, i, err)
	}
	if want := int64(factReference(n, rounds)); !sameResult(inv.Result, want) {
		return 0, fmt.Errorf("pack %s launch %d: result %s, want %d", kind, i, lang.Format(inv.Result), want)
	}
	return inv.Breakdown.Total(), nil
}

// cycle runs one fill of each kind, in a seeded order. A Firecracker
// fill costs a hundredth of a Fireworks fill, so a run measures whole
// cycles: a lone extra fill of either kind would skew its throughput.
func (b *packBench) cycle(l *lane) error {
	kinds := []string{"fireworks", "firecracker"}
	if newRNG(b.seed, uint64(b.fills)).intn(2) == 1 {
		kinds[0], kinds[1] = kinds[1], kinds[0]
	}
	for _, kind := range kinds {
		if err := b.fill(l, kind); err != nil {
			return err
		}
	}
	return nil
}

// fill fills the host with one kind of VM until it swaps, checks the
// memory report, and drains it back to where it started.
func (b *packBench) fill(l *lane, kind string) error {
	base := b.env.Mem.Used()
	n := 0
	for !b.env.Mem.Swapping() {
		if n == packMaxVMs {
			return fmt.Errorf("pack %s: host never reached its swap threshold", kind)
		}
		if _, err := b.launch(l, kind, n); err != nil {
			return err
		}
		n++
	}
	id := b.tr.begin(0, "mem.report")
	rep := b.env.Mem.Report()
	b.tr.end(id)
	if !rep.PSSPageExact {
		return fmt.Errorf("pack %s fill %d: PSS sum %.0f B is not page-exact against %d B used",
			kind, b.fills, rep.PSSSumBytes, rep.UsedBytes)
	}
	b.vmsToSwap[kind] = n
	if want := b.want[kind]; n != want {
		return fmt.Errorf("pack %s fill %d: %d VMs to swap, recorded %d", kind, b.fills, n, want)
	}
	return b.drain(kind, base)
}

// drain stops every VM of a kind and checks that the host's used
// memory is back to base.
func (b *packBench) drain(kind string, base uint64) error {
	var id int
	var err error
	if kind == "fireworks" {
		id = b.tr.begin(0, "core.stop_instances")
		err = b.fw.StopInstances(b.fn.Name)
	} else {
		// Firecracker keeps its VMs paused in a warm pool; removing the
		// function stops them, and reinstalling makes it launchable again.
		id = b.tr.begin(0, "platform.firecracker_drain")
		if err = b.fc.Remove(b.fn.Name); err == nil {
			_, err = b.fc.Install(b.fn)
		}
	}
	b.tr.end(id)
	if err != nil {
		return fmt.Errorf("pack %s drain: %w", kind, err)
	}
	if used := b.env.Mem.Used(); used != base {
		return fmt.Errorf("pack %s fill %d: %d B used after drain, %d B before fill", kind, b.fills, used, base)
	}
	b.fills++
	return nil
}

// warm launches and drains packWarmVMs VMs of each kind and digests
// their virtual latencies.
func (b *packBench) warm() (map[string]string, error) {
	l := (&phase{}).lane()
	var virt []time.Duration
	for _, kind := range []string{"fireworks", "firecracker"} {
		base := b.env.Mem.Used()
		for i := 0; i < packWarmVMs; i++ {
			v, err := b.launch(l, kind, i)
			if err != nil {
				return nil, err
			}
			virt = append(virt, v)
		}
		if err := b.drain(kind, base); err != nil {
			return nil, err
		}
	}
	return map[string]string{"virtual_latency": digestDurations(virt)}, nil
}

func (b *packBench) measure(deadline time.Time, ph *phase) error {
	l := ph.lane()
	defer ph.merge(l)
	for b.err == nil && time.Now().Before(deadline) {
		b.err = b.cycle(l)
		ph.boundary()
	}
	return nil
}

func (b *packBench) check() error { return b.err }

func (b *packBench) counts() map[string]float64 {
	out := registryCounts(b.env.Metrics)
	out["mem.high_water_mb"] = float64(b.env.Mem.HighWater()) / (1 << 20)
	out["mem.vms_to_swap.fireworks"] = float64(b.vmsToSwap["fireworks"])
	out["mem.vms_to_swap.firecracker"] = float64(b.vmsToSwap["firecracker"])
	return out
}
