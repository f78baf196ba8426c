package main

import (
	"bytes"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
)

func TestFoldSharesFollowsTheRule(t *testing.T) {
	samples := []stack{
		// GC wins over everything else on the stack.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 3},
		{[]string{"runtime.gcAssistAlloc1", "runtime.mallocgc", "repro/internal/lang/vm.(*VM).run"}, 2},
		// mallocgc wins over the module that allocated.
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "repro/internal/mem.(*Space).DirtyPage"}, 5},
		// The innermost internal frame names the module; lang covers
		// its sub-packages.
		{[]string{"sort.insertionSort", "repro/internal/stats.Percentile", "repro/internal/metrics.(*Registry).Snapshot"}, 4},
		{[]string{"repro/internal/lang/jit.(*compiled).run", "repro/internal/runtime.(*Runtime).Call"}, 6},
		{[]string{"repro/internal/lifecycle.(*Pool[go.shape.*uint8]).Acquire", "main.main"}, 1},
		// No internal frame at all.
		{[]string{"syscall.Syscall", "main.main"}, 4},
		// An unknown module folds into other rather than vanishing.
		{[]string{"repro/internal/nosuchmodule.F"}, 5},
	}
	got := foldShares(samples)
	want := map[string]float64{
		"go_gc": 5.0 / 30, "go_alloc": 5.0 / 30, "stats": 4.0 / 30,
		"lang": 6.0 / 30, "lifecycle": 1.0 / 30, "other": 9.0 / 30,
	}
	var sum float64
	for g, v := range got {
		sum += v
		if math.Abs(v-want[g]) > 1e-12 {
			t.Errorf("cpu.%s = %v, want %v", g, v, want[g])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if len(got) != len(cpuGroups()) {
		t.Errorf("%d groups reported, want every one of %d", len(got), len(cpuGroups()))
	}
}

func TestFoldSharesEmptyProfile(t *testing.T) {
	for g, v := range foldShares(nil) {
		if v != 0 {
			t.Errorf("cpu.%s = %v on an empty profile", g, v)
		}
	}
}

func TestModulesMatchTree(t *testing.T) {
	entries, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	mods := append([]string(nil), internalModules...)
	sort.Strings(mods)
	if strings.Join(dirs, ",") != strings.Join(mods, ",") {
		t.Errorf("internal modules %v, tree has %v", mods, dirs)
	}
}

func TestParseProfileReadsStacks(t *testing.T) {
	// A goroutine profile is the same gzipped profile.proto a CPU
	// profile is, and it always holds this test's own stack.
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range stacks {
		if s.weight < 1 {
			t.Errorf("stack %v has weight %d", s.frames, s.weight)
		}
		for i, f := range s.frames {
			// Leaf first: this test runs inside testing.tRunner.
			if strings.HasSuffix(f, ".TestParseProfileReadsStacks") {
				for _, caller := range s.frames[i+1:] {
					found = found || caller == "testing.tRunner"
				}
			}
		}
	}
	if !found {
		t.Errorf("no stack holds this test under testing.tRunner: %v", stacks)
	}
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("parseProfile accepted garbage")
	}
}

func TestSummarizeSelfTime(t *testing.T) {
	// A 100ns root with two overlapping children covering 10-40 and
	// 30-60, and one grandchild inside the second child.
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "child", Start: 10, End: 40, Parent: 0},
		{Name: "child", Start: 30, End: 60, Parent: 0},
		{Name: "leaf", Start: 35, End: 45, Parent: 2},
		{Name: "open", Start: 70, End: -1, Parent: 0},
	}
	got := summarize(spans)
	check := func(name string, count int, totalNs, selfNs float64) {
		t.Helper()
		s := got[name]
		if s.Count != count || math.Abs(s.TotalMs-totalNs/1e6) > 1e-15 || math.Abs(s.SelfMs-selfNs/1e6) > 1e-15 {
			t.Errorf("%s: %+v, want count %d total %vns self %vns", name, s, count, totalNs, selfNs)
		}
	}
	check("root", 1, 100, 50)
	check("child", 2, 60, 50)
	check("leaf", 1, 10, 10)
	if _, ok := got["open"]; ok {
		t.Error("an unfinished span was summarized")
	}
	if p50 := got["child"].P50Ms; math.Abs(p50-30.0/1e6) > 1e-15 {
		t.Errorf("child p50 %v ms, want 30ns", p50)
	}
}
