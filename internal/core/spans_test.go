package core_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/workloads"
)

// journalSpan is one span of a trace, rebuilt from its journal events.
type journalSpan struct {
	name, parent string // "component:name"
	begin        events.Event
	ends         []events.Event
}

// spansOf rebuilds the spans of one trace's events in begin order.
func spansOf(evs []events.Event) []*journalSpan {
	byID := map[events.SpanID]*journalSpan{}
	var out []*journalSpan
	for _, e := range evs {
		switch e.Kind {
		case events.KindBegin:
			s := &journalSpan{name: e.Component + ":" + e.Name, begin: e}
			if p := byID[e.Parent]; p != nil {
				s.parent = p.name
			}
			byID[e.Span] = s
			out = append(out, s)
		case events.KindEnd:
			if s := byID[e.Span]; s != nil {
				s.ends = append(s.ends, e)
			}
		}
	}
	return out
}

// checkInvokeSpans asserts that every span of one invoke trace closed
// exactly once, no earlier than it began, and that the core leaf spans
// under the pipeline stages are exactly want (leaf → stage).
func checkInvokeSpans(t *testing.T, evs []events.Event, want map[string]string) {
	t.Helper()
	got := map[string]string{}
	for _, s := range spansOf(evs) {
		if len(s.ends) != 1 || s.ends[0].TS < s.begin.TS {
			t.Errorf("%s under %s: %d end events, want one no earlier than its begin", s.name, s.parent, len(s.ends))
		}
		if s.parent == "" || s.parent == "core:invoke" || !strings.HasPrefix(s.name, "core:") {
			continue // the root, the pipeline stages, other components
		}
		if _, dup := got[s.name]; dup {
			t.Errorf("%s appears twice", s.name)
		}
		got[s.name] = s.parent
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("core leaf spans = %v, want %v", got, want)
	}
}

func TestFreshRestoreJournalSpans(t *testing.T) {
	env, fw := newFW(t, core.Options{})
	w := workloads.Fact(runtime.LangNode)
	if _, err := fw.Install(w.Function); err != nil {
		t.Fatal(err)
	}
	inv, err := fw.Invoke(w.Name, platform.MustParams(map[string]any{"n": 10, "rounds": 1}), platform.InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkInvokeSpans(t, env.Events.Trace(inv.Trace.TraceID()), map[string]string{
		"core:vm-restore":     "core:restore-or-reuse",
		"core:netns-setup":    "core:netns",
		"core:runtime-revive": "core:runtime-revive",
		"core:exec":           "core:execute",
	})
}

func TestWarmResumeJournalSpans(t *testing.T) {
	env, fw := newFW(t, core.Options{WarmPool: true})
	w := workloads.Fact(runtime.LangNode)
	if _, err := fw.Install(w.Function); err != nil {
		t.Fatal(err)
	}
	params := platform.MustParams(map[string]any{"n": 10, "rounds": 1})
	if _, err := fw.Invoke(w.Name, params, platform.InvokeOptions{}); err != nil {
		t.Fatal(err)
	}
	inv, err := fw.Invoke(w.Name, params, platform.InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkInvokeSpans(t, env.Events.Trace(inv.Trace.TraceID()), map[string]string{
		"core:warm-resume": "core:restore-or-reuse",
		"core:exec":        "core:execute",
	})
}

// TestFailedRestoreClosesEverySpan covers the restore stage's error
// path: no span of any trace is left open, and the vm-restore leaf
// closes itself, so its stage span, not the leaf, carries the error.
func TestFailedRestoreClosesEverySpan(t *testing.T) {
	env, fw, plane := faultyEnv(t, faults.RetryPolicy{})
	w := workloads.Fact(runtime.LangNode)
	if _, err := fw.Install(w.Function); err != nil {
		t.Fatal(err)
	}
	plane.Enqueue(faults.SiteVMMRestore, faults.KindError)
	_, err := fw.Invoke(w.Name, platform.MustParams(map[string]any{"n": 10, "rounds": 1}), platform.InvokeOptions{})
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want injected fault surfaced", err)
	}
	traces := map[events.TraceID][]events.Event{}
	for _, e := range env.Events.Events() {
		traces[e.Trace] = append(traces[e.Trace], e)
	}
	restores := 0
	for _, evs := range traces {
		for _, s := range spansOf(evs) {
			if len(s.ends) != 1 {
				t.Errorf("%s under %s: %d end events, want 1", s.name, s.parent, len(s.ends))
				continue
			}
			failed := hasAttr(s.ends[0], "error")
			switch s.name {
			case "core:vm-restore":
				restores++
				if failed {
					t.Error("vm-restore was closed by its stage: its end carries the error")
				}
			case "core:restore-or-reuse":
				if !failed {
					t.Error("restore-or-reuse stage ended without the error")
				}
			}
		}
	}
	if restores != 1 {
		t.Fatalf("%d vm-restore spans, want 1", restores)
	}
}

func hasAttr(e events.Event, key string) bool {
	for _, a := range e.Attrs {
		if a.Key == key {
			return true
		}
	}
	return false
}
