package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/workloads"
)

// mix runs a seeded mix of the 8 FaaSdom functions (Node.js on the JIT
// tier, Python on the interpreter tier) with drawn parameters on a
// 2-node cluster of restore-per-request Fireworks frameworks, driven by
// two closed-loop clients. Guest execution dominates; VMs are discarded
// after every invoke, so mem does little; the two clients contend on
// the shared cluster lock, metrics registry and journal.
const (
	mixNodes   = 2
	mixClients = 2
	// mixPrefix is the request count of the digested warm-up prefix.
	mixPrefix = 64
)

type mixBench struct {
	seed uint64
	c    *cluster.Cluster
	fns  []workloads.Workload
	tr   *tracer
	// next hands out request indexes; each index fixes its request.
	next atomic.Int64
	// err is the first failed op or result mismatch.
	mu  sync.Mutex
	err error
}

func newMix(seed uint64, _ *recorded, tr *tracer) (bench, error) {
	b := &mixBench{seed: seed, tr: tr}
	b.c = cluster.New(mixNodes, cluster.RoundRobin, platform.EnvConfig{}, func(env *platform.Env) platform.Platform {
		return timedPlatform{Platform: core.New(env, core.Options{}), tr: tr}
	})
	for _, l := range []runtime.Lang{runtime.LangNode, runtime.LangPython} {
		b.fns = append(b.fns, workloads.FaaSdom(l)...)
	}
	for _, w := range b.fns {
		if err := b.c.Install(w.Function); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// mixRequest is one drawn request and its expected result.
type mixRequest struct {
	fn     string
	params map[string]any
	want   lang.Value
}

// request draws request i. The functions take turns, so every run
// holds the same share of each; the parameters are drawn.
func (b *mixBench) request(i int64) mixRequest {
	r := newRNG(b.seed, uint64(i))
	w := b.fns[i%int64(len(b.fns))]
	switch {
	case strings.HasPrefix(w.Name, workloads.NameFact):
		n, rounds := 1000000+r.intn(9000000), 10+r.intn(31)
		return mixRequest{w.Name, map[string]any{"n": n, "rounds": rounds}, int64(factReference(n, rounds))}
	case strings.HasPrefix(w.Name, workloads.NameMatrixMult):
		n := []int{16, 24, 32}[r.intn(3)]
		return mixRequest{w.Name, map[string]any{"n": n}, int64(matmulReference(n))}
	case strings.HasPrefix(w.Name, workloads.NameDiskIO):
		it := 100 + r.intn(301)
		return mixRequest{w.Name, map[string]any{"iterations": it}, int64(it * 10240)}
	default:
		return mixRequest{w.Name, map[string]any{}, "ok"}
	}
}

// invoke runs request i on a client lane and checks its result; it
// returns the request's virtual latency.
func (b *mixBench) invoke(l *lane, client int, i int64) (time.Duration, error) {
	req := b.request(i)
	params := platform.MustParams(req.params)
	var inv *platform.Invocation
	err := l.op(func() error {
		defer b.tr.bind(params, client)()
		id := b.tr.begin(client, "cluster.invoke")
		defer b.tr.end(id)
		var err error
		inv, _, err = b.c.Invoke(req.fn, params, platform.InvokeOptions{})
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("mix request %d (%s): %w", i, req.fn, err)
	}
	if !sameResult(inv.Result, req.want) {
		return 0, fmt.Errorf("mix request %d (%s %v): result %s, want %s",
			i, req.fn, req.params, lang.Format(inv.Result), lang.Format(req.want))
	}
	return inv.Breakdown.Total(), nil
}

// drive runs the clients until stop says so, pulling request indexes
// in order.
func (b *mixBench) drive(ph *phase, stop func(i int64) bool, virt []time.Duration) {
	var wg sync.WaitGroup
	for client := 0; client < mixClients; client++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			l := ph.lane()
			defer ph.merge(l)
			for {
				i := b.next.Add(1) - 1
				if stop(i) {
					return
				}
				v, err := b.invoke(l, client, i)
				if err != nil {
					b.fail(err)
					return
				}
				if i < int64(len(virt)) {
					virt[i] = v
				}
				ph.boundary()
			}
		}(client)
	}
	wg.Wait()
}

func (b *mixBench) fail(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
}

func (b *mixBench) warm() (map[string]string, error) {
	virt := make([]time.Duration, mixPrefix)
	b.drive(&phase{}, func(i int64) bool { return i >= mixPrefix }, virt)
	if err := b.check(); err != nil {
		return nil, err
	}
	b.next.Store(mixPrefix)
	return map[string]string{"virtual_latency": digestDurations(virt)}, nil
}

func (b *mixBench) measure(deadline time.Time, ph *phase) error {
	b.drive(ph, func(int64) bool { return time.Now().After(deadline) }, nil)
	return nil
}

func (b *mixBench) check() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

func (b *mixBench) counts() map[string]float64 {
	return clusterCounts(b.c)
}

// factReference is faas-fact's result: the prime factors, with
// multiplicity, of n, n+1, ..., n+rounds-1.
func factReference(n, rounds int) int {
	total := 0
	for i := 0; i < rounds; i++ {
		m := n + i
		for d := 2; d*d <= m; d++ {
			for m%d == 0 {
				total++
				m /= d
			}
		}
		if m > 1 {
			total++
		}
	}
	return total
}

// matmulReference is faas-matrix-mult's checksum c[0][0]+c[n-1][n-1]
// of the product of its two generated n×n matrices.
func matmulReference(n int) int {
	build := func(seed int) [][]int {
		m := make([][]int, n)
		for i := range m {
			m[i] = make([]int, n)
			for j := range m[i] {
				m[i][j] = (i*31 + j*17 + seed) % 97
			}
		}
		return m
	}
	a, b := build(3), build(7)
	cell := func(i, j int) int {
		sum := 0
		for k := 0; k < n; k++ {
			sum += a[i][k] * b[k][j]
		}
		return sum
	}
	return cell(0, 0) + cell(n-1, n-1)
}

// sameResult compares a guest result with the expected value; numbers
// compare by value whatever their FaaSLang type.
func sameResult(got, want lang.Value) bool {
	if w, ok := want.(int64); ok {
		switch g := got.(type) {
		case int64:
			return g == w
		case float64:
			return g == float64(w)
		}
		return false
	}
	return lang.Equal(got, want)
}
