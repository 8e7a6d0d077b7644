// Package workload generates the deterministic synthetic applications that
// stand in for the paper's SPEC CPU2000 / MinneSPEC benchmarks (gzip, mcf,
// crafty, twolf, mgrid, applu, mesa, equake).
//
// Each application is a fixed instruction trace: a pure function of the
// application name and trace length, never of the architecture being
// simulated — exactly as a real benchmark binary with a fixed input would
// be. The trace records, per dynamic instruction, the operation class,
// program counter, register-dependency distances, effective memory
// address, and branch outcome/target. The simulator replays this trace
// through a cycle-level out-of-order machine; the predictors and caches
// react to the trace, so IPC varies with the architectural configuration
// while the program itself does not.
//
// Traces are built from a static "program" of basic blocks organized into
// phases, so they exhibit the properties the paper's machinery depends
// on: instruction working sets (I-cache pressure), data working sets that
// straddle the studied cache capacities (capacity cliffs), loop branches
// and data-dependent branches (predictor pressure), dependency chains
// (ILP limits), and time-varying phase behaviour (which is what gives
// SimPoint something to find).
package workload

import (
	"fmt"
	"sort"
	"sync"
)

// OpClass identifies the functional-unit class of an instruction.
type OpClass uint8

// Operation classes. Latencies and functional-unit bindings are assigned
// by the simulator, not here.
const (
	IntALU OpClass = iota // single-cycle integer op
	IntMul                // multi-cycle integer multiply/divide
	FPALU                 // pipelined FP add/sub/compare
	FPMul                 // pipelined FP multiply
	FPDiv                 // unpipelined FP divide/sqrt
	Load                  // memory read
	Store                 // memory write
	Branch                // conditional branch (terminates a basic block)
	numOpClasses
)

// String returns the mnemonic for the class.
func (c OpClass) String() string {
	switch c {
	case IntALU:
		return "ialu"
	case IntMul:
		return "imul"
	case FPALU:
		return "fadd"
	case FPMul:
		return "fmul"
	case FPDiv:
		return "fdiv"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "br"
	}
	return fmt.Sprintf("op(%d)", uint8(c))
}

// IsFP reports whether the class executes on the floating-point side of
// the machine (consumes FP physical registers).
func (c OpClass) IsFP() bool { return c == FPALU || c == FPMul || c == FPDiv }

// IsMem reports whether the class accesses data memory.
func (c OpClass) IsMem() bool { return c == Load || c == Store }

// Inst is one dynamic instruction in a trace.
type Inst struct {
	PC     uint64  // instruction address (4-byte instructions)
	Addr   uint64  // effective address for Load/Store, else 0
	Target uint64  // branch target PC (next PC if taken), else 0
	Block  uint32  // static basic-block ID (for SimPoint BBVs)
	Src1   int32   // distance (in dynamic instructions) back to the first producer; 0 = none
	Src2   int32   // distance back to the second producer; 0 = none
	Class  OpClass // operation class
	Taken  bool    // branch outcome
}

// Trace is a complete dynamic instruction stream for one application.
type Trace struct {
	App       string // application name
	Insts     []Inst
	NumBlocks int // number of static basic blocks (BBV dimensionality)
}

// Len returns the number of dynamic instructions.
func (t *Trace) Len() int { return len(t.Insts) }

// Slice returns a sub-trace covering instructions [lo, hi); it shares
// the underlying storage. Used by SimPoint interval simulation.
func (t *Trace) Slice(lo, hi int) *Trace {
	if lo < 0 || hi > len(t.Insts) || lo > hi {
		panic("workload: trace slice out of range")
	}
	return &Trace{App: t.App, Insts: t.Insts[lo:hi], NumBlocks: t.NumBlocks}
}

// Stats summarizes the dynamic instruction mix of a trace.
type Stats struct {
	Total    int
	ByClass  [numOpClasses]int
	Branches int
	TakenPct float64
	MemPct   float64
	FPPct    float64
}

// Summarize computes the dynamic mix of the trace.
func (t *Trace) Summarize() Stats {
	var s Stats
	s.Total = len(t.Insts)
	taken := 0
	for i := range t.Insts {
		in := &t.Insts[i]
		s.ByClass[in.Class]++
		if in.Class == Branch {
			s.Branches++
			if in.Taken {
				taken++
			}
		}
	}
	if s.Branches > 0 {
		s.TakenPct = float64(taken) / float64(s.Branches) * 100
	}
	if s.Total > 0 {
		s.MemPct = float64(s.ByClass[Load]+s.ByClass[Store]) / float64(s.Total) * 100
		s.FPPct = float64(s.ByClass[FPALU]+s.ByClass[FPMul]+s.ByClass[FPDiv]) / float64(s.Total) * 100
	}
	return s
}

// traceCache memoizes generated traces; generation is deterministic, so
// caching only saves time, never changes results.
var traceCache sync.Map // key string -> *Trace

// Get returns the trace for the named application at the given dynamic
// length, generating and caching it on first use. It panics if the
// application name is unknown or the length negative: it is for
// programmer-supplied names (the set of applications is the fixed
// benchmark suite, so a typo is a programming error). Names that come
// from a request go through Lookup.
func Get(app string, length int) *Trace {
	t, err := Lookup(app, length)
	if err != nil {
		panic(err)
	}
	return t
}

// Lookup is Get for untrusted input: it returns an error for an
// unknown application or a negative length instead of panicking.
func Lookup(app string, length int) (*Trace, error) {
	p, ok := profiles[app]
	if !ok {
		return nil, fmt.Errorf("workload: unknown application %q (have %v)", app, Apps())
	}
	if length < 0 {
		return nil, fmt.Errorf("workload: negative trace length %d", length)
	}
	key := fmt.Sprintf("%s/%d", app, length)
	if v, ok := traceCache.Load(key); ok {
		return v.(*Trace), nil
	}
	actual, _ := traceCache.LoadOrStore(key, generate(p, length))
	return actual.(*Trace), nil
}

// Apps returns the benchmark suite names in a stable order.
func Apps() []string {
	names := make([]string, 0, len(profiles))
	for name := range profiles {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// IsFloatingPoint reports whether the named application belongs to the
// CFP2000 half of the suite (mgrid, applu, mesa, equake).
func IsFloatingPoint(app string) bool {
	p, ok := profiles[app]
	return ok && p.fp
}
