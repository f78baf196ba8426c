// Package vm executes FaaSLang bytecode. It is the baseline execution
// tier (the "interpreter" in the paper's terminology): every instruction
// is dispatched dynamically and charged to a cost meter at
// interpreter-tier rates. The VM also collects the runtime profile (call
// counts, loop back-edges, observed argument types) that drives tier-up
// decisions in the JIT backend, and it is the de-optimization target
// when JITted code's type guards fail.
package vm

import (
	"errors"
	"fmt"

	"repro/internal/lang"
	"repro/internal/lang/bytecode"
)

// Tier identifies which execution tier is charging cost.
type Tier uint8

// Execution tiers.
const (
	TierInterp Tier = iota
	TierJIT
)

// String returns the tier name.
func (t Tier) String() string {
	if t == TierJIT {
		return "jit"
	}
	return "interp"
}

// CostMeter receives per-instruction virtual cost charges. The runtime
// layer maps (tier, category) pairs to calibrated virtual durations.
type CostMeter interface {
	Charge(tier Tier, cat bytecode.Category, n int)
}

// NopMeter discards all charges (used by unit tests of pure semantics).
type NopMeter struct{}

// Charge implements CostMeter.
func (NopMeter) Charge(Tier, bytecode.Category, int) {}

// Compiled is optimized code produced by a JIT backend for one function.
type Compiled interface {
	// Run executes the compiled function. deopt=true means an entry
	// type-guard failed and the caller must fall back to the
	// interpreter for this call.
	Run(v *VM, args []lang.Value) (result lang.Value, deopt bool, err error)
}

// JITBackend is the optimizing tier's hook into the VM.
type JITBackend interface {
	// Lookup returns compiled code for fn, or nil.
	Lookup(fn *bytecode.Function) Compiled
	// OnCall is invoked on every function entry with the current
	// profile, letting the backend trigger compilation.
	OnCall(v *VM, fn *bytecode.Function, prof *Profile)
	// OnLoopBack is invoked on every loop back-edge.
	OnLoopBack(v *VM, fn *bytecode.Function, prof *Profile)
	// OnDeopt is invoked when compiled code bails out to the
	// interpreter, letting the backend charge the de-optimization
	// penalty and update its caches.
	OnDeopt(v *VM, fn *bytecode.Function)
}

// ErrTooManySteps guards against runaway guest code.
var ErrTooManySteps = errors.New("vm: execution step limit exceeded")

// DefaultMaxSteps bounds one VM's total executed instructions.
const DefaultMaxSteps = int64(2_000_000_000)

// VM is one FaaSLang execution context (one guest's runtime).
type VM struct {
	Globals  map[string]lang.Value
	Meter    CostMeter
	JIT      JITBackend
	MaxSteps int64

	steps    int64
	profiles map[*bytecode.Function]*Profile
	depth    int
}

// maxCallDepth bounds recursion in guest code.
const maxCallDepth = 512

// New returns a VM with empty globals and the given meter (nil means
// NopMeter).
func New(meter CostMeter) *VM {
	if meter == nil {
		meter = NopMeter{}
	}
	return &VM{
		Globals:  make(map[string]lang.Value),
		Meter:    meter,
		MaxSteps: DefaultMaxSteps,
		profiles: make(map[*bytecode.Function]*Profile),
	}
}

// Steps returns the total number of bytecode instructions executed by
// the interpreter tier so far.
func (v *VM) Steps() int64 { return v.steps }

// Profile returns (creating if needed) the profile of fn.
func (v *VM) Profile(fn *bytecode.Function) *Profile {
	p, ok := v.profiles[fn]
	if !ok {
		p = &Profile{}
		v.profiles[fn] = p
	}
	return p
}

// RunModule executes a module's top level, defining its functions and
// running its module-level statements.
func (v *VM) RunModule(mod *bytecode.Module) (lang.Value, error) {
	return v.runFunction(mod.TopLevel, nil)
}

// CallValue calls any callable FaaSLang value with args. It is the
// single call dispatcher used by the interpreter, JITted code, and host
// natives alike, so tier transitions happen in exactly one place.
func (v *VM) CallValue(fnVal lang.Value, args []lang.Value) (lang.Value, error) {
	switch fn := fnVal.(type) {
	case *lang.Native:
		if fn.Arity >= 0 && len(args) != fn.Arity {
			return nil, fmt.Errorf("vm: %s expects %d args, got %d", fn.Name, fn.Arity, len(args))
		}
		return fn.Fn(args)
	case *bytecode.Closure:
		return v.callClosure(fn, args)
	default:
		return nil, fmt.Errorf("vm: value of type %s is not callable", lang.TypeOf(fnVal))
	}
}

func (v *VM) callClosure(cl *bytecode.Closure, args []lang.Value) (lang.Value, error) {
	fn := cl.Fn
	if len(args) != len(fn.Params) {
		return nil, fmt.Errorf("vm: %s expects %d args, got %d", fn.Name, len(fn.Params), len(args))
	}
	prof := v.Profile(fn)
	prof.RecordCall(args)
	if v.JIT != nil {
		v.JIT.OnCall(v, fn, prof)
		if comp := v.JIT.Lookup(fn); comp != nil {
			result, deopt, err := v.runCompiled(comp, fn, args)
			if !deopt {
				return result, err
			}
			v.JIT.OnDeopt(v, fn)
		}
	}
	return v.runFunction(fn, args)
}

// runCompiled runs fn's compiled code under the same call-depth limit
// runFunction enforces: compiled code calls back through callClosure,
// not runFunction, so without it JIT-tier recursion would run past the
// limit the interpreter stops at.
func (v *VM) runCompiled(comp Compiled, fn *bytecode.Function, args []lang.Value) (lang.Value, bool, error) {
	if v.depth >= maxCallDepth {
		return nil, false, fmt.Errorf("vm: call depth limit (%d) exceeded in %s", maxCallDepth, fn.Name)
	}
	v.depth++
	defer func() { v.depth-- }()
	return comp.Run(v, args)
}

// Iter drives for-in loops over lists (items), maps (sorted keys), and
// strings (runes). It is shared by the interpreter and the JIT tier.
type Iter struct {
	items []lang.Value
	idx   int
}

// NewIter returns an iterator over v, or an error for non-iterables.
func NewIter(v lang.Value) (*Iter, error) {
	switch v := v.(type) {
	case *lang.List:
		return &Iter{items: v.Items}, nil
	case *lang.Map:
		keys := v.SortedKeys()
		items := make([]lang.Value, len(keys))
		for i, k := range keys {
			items[i] = k
		}
		return &Iter{items: items}, nil
	case string:
		items := make([]lang.Value, 0, len(v))
		for _, r := range v {
			items = append(items, string(r))
		}
		return &Iter{items: items}, nil
	default:
		return nil, fmt.Errorf("vm: cannot iterate %s", lang.TypeOf(v))
	}
}

// Next returns the next item, or ok=false when exhausted.
func (it *Iter) Next() (lang.Value, bool) {
	if it.idx >= len(it.items) {
		return nil, false
	}
	v := it.items[it.idx]
	it.idx++
	return v, true
}

// CountStep increments the executed-instruction counter on behalf of a
// non-interpreter tier and reports whether the step limit was exceeded.
func (v *VM) CountStep() error {
	v.steps++
	if v.steps > v.MaxSteps {
		return ErrTooManySteps
	}
	return nil
}

// runFunction interprets fn's bytecode. args may be nil for the module
// top level.
func (v *VM) runFunction(fn *bytecode.Function, args []lang.Value) (result lang.Value, err error) {
	if v.depth >= maxCallDepth {
		return nil, fmt.Errorf("vm: call depth limit (%d) exceeded in %s", maxCallDepth, fn.Name)
	}
	v.depth++
	defer func() { v.depth-- }()

	locals := make([]lang.Value, fn.NumLocals)
	copy(locals, args)
	stack := make([]lang.Value, 0, 16)
	push := func(val lang.Value) { stack = append(stack, val) }
	pop := func() lang.Value {
		val := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return val
	}

	code := fn.Code
	prof := v.Profile(fn)
	for pc := 0; pc < len(code); {
		ins := code[pc]
		v.steps++
		if v.steps > v.MaxSteps {
			return nil, fmt.Errorf("%w (in %s)", ErrTooManySteps, fn.Name)
		}
		v.Meter.Charge(TierInterp, bytecode.CategoryOf(ins.Op), 1)

		switch ins.Op {
		case bytecode.OpConst:
			push(fn.Consts[ins.A])
		case bytecode.OpNull:
			push(nil)
		case bytecode.OpTrue:
			push(true)
		case bytecode.OpFalse:
			push(false)
		case bytecode.OpPop:
			pop()
		case bytecode.OpDup:
			push(stack[len(stack)-1])
		case bytecode.OpLoadLocal:
			push(locals[ins.A])
		case bytecode.OpStoreLocal:
			locals[ins.A] = pop()
		case bytecode.OpLoadGlobal:
			name := fn.Consts[ins.A].(string)
			val, ok := v.Globals[name]
			if !ok {
				return nil, fmt.Errorf("vm: line %d: undefined variable %q", ins.Line, name)
			}
			push(val)
		case bytecode.OpStoreGlobal:
			v.Globals[fn.Consts[ins.A].(string)] = pop()
		case bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul, bytecode.OpDiv, bytecode.OpMod,
			bytecode.OpEq, bytecode.OpNeq, bytecode.OpLt, bytecode.OpLte, bytecode.OpGt, bytecode.OpGte:
			right := pop()
			left := pop()
			val, err := BinaryOp(ins.Op, left, right)
			if err != nil {
				return nil, fmt.Errorf("vm: line %d: %w", ins.Line, err)
			}
			push(val)
		case bytecode.OpNeg:
			val := pop()
			switch n := val.(type) {
			case int64:
				push(-n)
			case float64:
				push(-n)
			default:
				return nil, fmt.Errorf("vm: line %d: cannot negate %s", ins.Line, lang.TypeOf(val))
			}
		case bytecode.OpNot:
			push(!lang.Truthy(pop()))
		case bytecode.OpJump:
			pc = ins.A
			continue
		case bytecode.OpLoop:
			prof.LoopBackEdges++
			if v.JIT != nil {
				v.JIT.OnLoopBack(v, fn, prof)
			}
			pc = ins.A
			continue
		case bytecode.OpJumpIfFalse:
			if !lang.Truthy(pop()) {
				pc = ins.A
				continue
			}
		case bytecode.OpJumpIfTrue:
			if lang.Truthy(pop()) {
				pc = ins.A
				continue
			}
		case bytecode.OpCall:
			argc := ins.A
			callArgs := make([]lang.Value, argc)
			for i := argc - 1; i >= 0; i-- {
				callArgs[i] = pop()
			}
			callee := pop()
			val, err := v.CallValue(callee, callArgs)
			if err != nil {
				return nil, err
			}
			push(val)
		case bytecode.OpReturn:
			return pop(), nil
		case bytecode.OpMakeList:
			n := ins.A
			items := make([]lang.Value, n)
			for i := n - 1; i >= 0; i-- {
				items[i] = pop()
			}
			push(&lang.List{Items: items})
		case bytecode.OpMakeMap:
			n := ins.A
			m := lang.NewMap()
			pairs := make([]lang.Value, 2*n)
			for i := 2*n - 1; i >= 0; i-- {
				pairs[i] = pop()
			}
			for i := 0; i < n; i++ {
				key, ok := pairs[2*i].(string)
				if !ok {
					return nil, fmt.Errorf("vm: line %d: map key must be string, got %s", ins.Line, lang.TypeOf(pairs[2*i]))
				}
				m.Items[key] = pairs[2*i+1]
			}
			push(m)
		case bytecode.OpIndex:
			key := pop()
			container := pop()
			val, err := Index(container, key)
			if err != nil {
				return nil, fmt.Errorf("vm: line %d: %w", ins.Line, err)
			}
			push(val)
		case bytecode.OpSetIndex:
			val := pop()
			key := pop()
			container := pop()
			if err := SetIndex(container, key, val); err != nil {
				return nil, fmt.Errorf("vm: line %d: %w", ins.Line, err)
			}
		case bytecode.OpIterNew:
			it, err := NewIter(pop())
			if err != nil {
				return nil, fmt.Errorf("vm: line %d: %w", ins.Line, err)
			}
			push(it)
		case bytecode.OpIterNext:
			it := stack[len(stack)-1].(*Iter)
			if item, ok := it.Next(); ok {
				push(item)
			} else {
				pop() // discard exhausted iterator
				pc = ins.A
				continue
			}
		case bytecode.OpClosure:
			push(&bytecode.Closure{Fn: fn.Consts[ins.A].(*bytecode.Function)})
		default:
			return nil, fmt.Errorf("vm: line %d: unknown opcode %s", ins.Line, ins.Op)
		}
		pc++
	}
	return nil, nil
}
