// Package trace records the latency breakdown of a simulated serverless
// invocation. The paper's figures decompose end-to-end latency into three
// phases — start-up, function execution, and everything else (network,
// disk, queueing) — and this package is the common currency that every
// platform implementation uses to report those phases.
package trace

import (
	"fmt"
	"strings"
	"time"
)

// Phase identifies one component of an invocation's end-to-end latency.
type Phase string

// The three phases reported by Figures 6, 7, and 9 in the paper.
const (
	PhaseStartup Phase = "start-up" // sandbox/VM/runtime initialization, snapshot load
	PhaseExec    Phase = "exec"     // user function execution (incl. in-run JIT)
	PhaseOthers  Phase = "others"   // network, disk I/O, queueing, parameter fetch
)

// Breakdown accumulates virtual time per phase for one invocation: the
// three-phase ledger plus its accounting log. The nested structure of an
// invocation (which span contains which) lives in the event journal
// (internal/events), not here. The zero value is ready to use.
// Breakdown is not safe for concurrent use; each invocation owns its
// own.
type Breakdown struct {
	durs    [3]time.Duration // PhaseStartup, PhaseExec, PhaseOthers
	present [3]bool          // whether the slot was ever charged (even 0)
	events  []Event
}

// slot maps a standard phase to its fixed index, or -1.
func slot(p Phase) int {
	switch p {
	case PhaseStartup:
		return 0
	case PhaseExec:
		return 1
	case PhaseOthers:
		return 2
	}
	return -1
}

// Event is a single timestamped accounting entry, useful for debugging a
// simulated invocation ("what exactly did the cold start pay for?").
type Event struct {
	Phase Phase
	Label string
	Cost  time.Duration
}

// Add charges cost to the given phase with a human-readable label.
// Charging a phase outside the standard three, or a negative cost,
// panics: both indicate a broken accounting site.
func (b *Breakdown) Add(p Phase, label string, cost time.Duration) {
	if cost < 0 {
		panic(fmt.Sprintf("trace: negative cost %v for %s/%s", cost, p, label))
	}
	i := slot(p)
	if i < 0 {
		panic(fmt.Sprintf("trace: unknown phase %q for %s", p, label))
	}
	b.durs[i] += cost
	b.present[i] = true
	b.events = append(b.events, Event{Phase: p, Label: label, Cost: cost})
}

// Get returns the accumulated time for one phase (zero for a phase
// outside the standard three).
func (b *Breakdown) Get(p Phase) time.Duration {
	if i := slot(p); i >= 0 {
		return b.durs[i]
	}
	return 0
}

// Startup, Exec, and Others are convenience accessors for the three
// standard phases.
func (b *Breakdown) Startup() time.Duration { return b.Get(PhaseStartup) }
func (b *Breakdown) Exec() time.Duration    { return b.Get(PhaseExec) }
func (b *Breakdown) Others() time.Duration  { return b.Get(PhaseOthers) }

// Total returns the end-to-end latency: the sum over all phases.
func (b *Breakdown) Total() time.Duration {
	return b.durs[0] + b.durs[1] + b.durs[2]
}

// Events returns the accounting log in insertion order. The returned
// slice is owned by the Breakdown and must not be modified.
func (b *Breakdown) Events() []Event { return b.events }

// String renders the breakdown compactly, phases sorted by name, e.g.
// "exec=1.2ms others=300µs start-up=12ms total=13.5ms".
func (b *Breakdown) String() string {
	var sb strings.Builder
	for _, p := range [3]Phase{PhaseExec, PhaseOthers, PhaseStartup} {
		if i := slot(p); b.present[i] {
			fmt.Fprintf(&sb, "%s=%v ", p, b.durs[i])
		}
	}
	fmt.Fprintf(&sb, "total=%v", b.Total())
	return sb.String()
}
