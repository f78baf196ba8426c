package jit_test

import (
	"errors"
	"testing"

	"repro/internal/lang"
	"repro/internal/lang/bytecode"
	"repro/internal/lang/vm"
	"repro/internal/runtime"
	"repro/internal/vclock"
)

// fuzzMaxSteps bounds each fuzzed run, so a looping or deeply
// recursing input ends in vm.ErrTooManySteps instead of running on.
const fuzzMaxSteps = 100_000

// tierOutcome is what one tier made of a fuzzed program.
type tierOutcome struct {
	loadErr error
	result  lang.Value
	callErr error
	stdout  string
}

// runTier loads src into a fresh Node runtime and calls main(params)
// when the module defines it. With jitted set, every function is
// force-compiled after load (the post-JIT snapshot state) and the JIT
// tiers up anything else it sees hot; without it the interpreter runs
// everything.
func runTier(src string, n int64, jitted bool) tierOutcome {
	rt := runtime.New(runtime.LangNode, vclock.New())
	// now_ms reads the virtual clock, which the two tiers advance at
	// different rates; everything else in the stdlib is tier-neutral.
	delete(rt.VM.Globals, "now_ms")
	if !jitted {
		rt.VM.JIT = nil
	}
	rt.VM.MaxSteps = fuzzMaxSteps
	rt.Boot()
	var out tierOutcome
	if out.loadErr = rt.LoadModule(src); out.loadErr != nil {
		return out
	}
	if jitted {
		rt.ForceJITAll()
	}
	if rt.HasGlobal("main") {
		params := lang.NewMap()
		params.Set("n", n)
		out.result, out.callErr = rt.Call("main", params)
	}
	out.stdout = rt.Stdout.String()
	return out
}

// sameError reports whether two tiers failed alike: both or neither,
// and both or neither on the step limit. Messages differ by tier
// ("vm: line 3: …" vs "jit f: line 3: …"), so they are not compared.
func sameError(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return errors.Is(a, vm.ErrTooManySteps) == errors.Is(b, vm.ErrTooManySteps)
}

// FuzzInterpVsJIT is the differential check behind the post-JIT
// snapshot claim: JIT-compiled code must compute what the interpreter
// computes — the same value (or the same failure) and the same output —
// for any program that compiles. The seed corpus in
// testdata/fuzz/FuzzInterpVsJIT holds the internal/workloads sources
// and the regressions the target has found.
func FuzzInterpVsJIT(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string, n int64) {
		if _, err := bytecode.CompileSource(src); err != nil {
			return // front-end rejects are not a tier question
		}
		interp := runTier(src, n, false)
		jitted := runTier(src, n, true)
		if !sameError(interp.loadErr, jitted.loadErr) {
			t.Fatalf("module load: interp %v, jit %v", interp.loadErr, jitted.loadErr)
		}
		if !sameError(interp.callErr, jitted.callErr) {
			t.Fatalf("main: interp err %v, jit err %v", interp.callErr, jitted.callErr)
		}
		if lang.TypeOf(interp.result) != lang.TypeOf(jitted.result) ||
			lang.Format(interp.result) != lang.Format(jitted.result) {
			t.Fatalf("main: interp %s, jit %s", lang.Format(interp.result), lang.Format(jitted.result))
		}
		if interp.stdout != jitted.stdout {
			t.Fatalf("stdout: interp %q, jit %q", interp.stdout, jitted.stdout)
		}
	})
}
