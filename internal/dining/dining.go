// Package dining implements section 7 of the paper: the Dining
// Philosophers results DP and DP'.
//
// DP: there is no symmetric, distributed, deterministic solution for five
// philosophers (Figure 4). The paper derives this from Theorem 11 — five
// is prime, so all five graph-symmetric philosophers are similar even in
// L, and a schedule exists making all of them eat together (or starve
// together). Operationally the standard fork-grabbing program deadlocks
// under the round-robin schedule, which this package demonstrates both by
// model checking and by direct execution.
//
// DP': six philosophers seated alternately (Figure 5) admit a symmetric,
// distributed, deterministic solution. Each fork is then either a shared
// "left" fork or a shared "right" fork, the two fork classes form a
// global two-level resource hierarchy, and the uniform program "lock your
// left fork, then your right fork" is deadlock-free. The package verifies
// exclusion and deadlock-freedom by exhaustive model checking and
// progress (everybody eats) by fair execution.
package dining

import (
	"errors"
	"fmt"
	"sync/atomic"

	"simsym/internal/machine"
	"simsym/internal/mc"
	"simsym/internal/sched"
	"simsym/internal/system"
)

// Sentinel errors.
var (
	ErrNotDining = errors.New("dining: system is not a dining table")
)

// Program returns the uniform philosopher program: meals times, spin-lock
// the fork called first, then the fork called second, eat for one step,
// release both, think. The program is symmetric and deterministic — the
// only asymmetry available is in the naming structure of the table.
func Program(first, second system.Name, meals int) (*machine.Program, error) {
	b := machine.NewBuilder()
	mealsS, eatingS := b.Sym("meals"), b.Sym("eating")
	g1, g2 := b.Sym("_g1"), b.Sym("_g2")
	b.Compute(func(r *machine.Regs) {
		r.Set(mealsS, 0)
		r.Set(eatingS, false)
	})
	b.Label("think")
	b.JumpIf(func(r *machine.Regs) bool { return r.Int(mealsS) >= meals }, "full")
	b.Label("grab1")
	b.Lock(first, "_g1")
	b.JumpIf(func(r *machine.Regs) bool { return r.Get(g1) != true }, "grab1")
	b.Label("grab2")
	b.Lock(second, "_g2")
	b.JumpIf(func(r *machine.Regs) bool { return r.Get(g2) != true }, "grab2")
	b.Compute(func(r *machine.Regs) { r.Set(eatingS, true) })
	b.Compute(func(r *machine.Regs) {
		r.Set(eatingS, false)
		r.Set(mealsS, r.Int(mealsS)+1)
	})
	b.Unlock(second)
	b.Unlock(first)
	b.Jump("think")
	b.Label("full")
	b.Halt()
	return b.Build()
}

// Adjacency returns, for each pair of philosophers sharing a fork, the
// pair (each shared fork contributes one pair).
func Adjacency(sys *system.System) ([][2]int, error) {
	vn := sys.VarNeighbors()
	var pairs [][2]int
	for v := range vn {
		procs := make(map[int]bool)
		for _, e := range vn[v] {
			procs[e.Proc] = true
		}
		if len(procs) != 2 {
			return nil, fmt.Errorf("%w: fork %s has %d users, want 2", ErrNotDining, sys.VarIDs[v], len(procs))
		}
		var pair [2]int
		i := 0
		for p := range procs {
			pair[i] = p
			i++
		}
		if pair[0] > pair[1] {
			pair[0], pair[1] = pair[1], pair[0]
		}
		pairs = append(pairs, pair)
	}
	return pairs, nil
}

// ExclusionPred builds a model-checker predicate flagging states where
// two adjacent philosophers eat simultaneously.
func ExclusionPred(sys *system.System) (mc.StatePredicate, error) {
	pairs, err := Adjacency(sys)
	if err != nil {
		return nil, err
	}
	eating := func(m *machine.Machine, p int) bool {
		v, ok := m.Local(p, "eating")
		return ok && v == true
	}
	return func(m *machine.Machine) string {
		for _, pr := range pairs {
			if eating(m, pr[0]) && eating(m, pr[1]) {
				return fmt.Sprintf("adjacent philosophers %d and %d eating together", pr[0], pr[1])
			}
		}
		return ""
	}, nil
}

// LocalExclusionPred is the per-step localized form of ExclusionPred for
// sampled runs: after processor p steps, only pairs involving p can have
// newly started eating together, so checking p against its fork
// neighbors is equivalent to the full pairwise scan when run after every
// executed step — at O(degree) instead of O(forks) per step. (Fault
// injection preserves this: crashes and lock drops never set "eating".)
// The violation messages match ExclusionPred's format.
func LocalExclusionPred(sys *system.System) (mc.ProcPredicate, error) {
	pairs, err := Adjacency(sys)
	if err != nil {
		return nil, err
	}
	neighbors := make([][]int, sys.NumProcs())
	for _, pr := range pairs {
		neighbors[pr[0]] = append(neighbors[pr[0]], pr[1])
		neighbors[pr[1]] = append(neighbors[pr[1]], pr[0])
	}
	// The "eating" slot is resolved once per program rather than by
	// name on every read. Sampler workers share the predicate, so the
	// resolution is published atomically.
	type slot struct {
		prog *machine.Program
		sym  machine.Sym
		ok   bool
	}
	var cached atomic.Pointer[slot]
	return func(m *machine.Machine, p int) string {
		if p < 0 || p >= len(neighbors) {
			return ""
		}
		sl := cached.Load()
		if sl == nil || sl.prog != m.Program() {
			sl = &slot{prog: m.Program()}
			sl.sym, sl.ok = sl.prog.LookupSym("eating")
			cached.Store(sl)
		}
		if !sl.ok {
			return ""
		}
		eating := func(q int) bool {
			v, ok := m.LocalAt(q, sl.sym)
			return ok && v == true
		}
		if !eating(p) {
			return ""
		}
		for _, q := range neighbors[p] {
			if eating(q) {
				a, b := p, q
				if a > b {
					a, b = b, a
				}
				return fmt.Sprintf("adjacent philosophers %d and %d eating together", a, b)
			}
		}
		return ""
	}, nil
}

// Report is the outcome of analyzing a dining table with a program.
type Report struct {
	// StatesExplored is the model checker's state count.
	StatesExplored int
	// Complete indicates exhaustive exploration.
	Complete bool
	// ExclusionViolated holds the counterexample schedule, if any.
	ExclusionViolated []int
	// Deadlocked holds a schedule reaching an inescapable stuck
	// component, if any.
	Deadlocked []int
	// Stats carries the checker's counters (dedup hits, symmetry
	// quotient, throughput) for reporting.
	Stats mc.Stats
}

// Check model-checks the program on the table: exclusion as a state
// predicate, deadlock as a stuck terminal component. When the state
// budget runs out before closure, the report carries Complete=false and
// whatever was (not) found within the bound — bounded verification
// rather than an error, since large tables cannot close.
func Check(sys *system.System, prog *machine.Program, maxStates int) (*Report, error) {
	return CheckWith(sys, prog, mc.Options{MaxStates: maxStates})
}

// CheckWith is Check with full control over the engine: symmetry
// reduction, parallel expansion, budgets, and progress reporting. The
// exclusion and deadlock predicates are installed on top of opts.
func CheckWith(sys *system.System, prog *machine.Program, opts mc.Options) (*Report, error) {
	exclusion, err := ExclusionPred(sys)
	if err != nil {
		return nil, err
	}
	opts.StatePreds = append(opts.StatePreds, exclusion)
	opts.StuckBad = mc.NotAllHalted
	res, err := mc.Check(func() (*machine.Machine, error) {
		return machine.New(sys, system.InstrL, prog)
	}, opts)
	if errors.Is(err, mc.ErrBudget) {
		return &Report{StatesExplored: res.StatesExplored, Complete: false, Stats: res.Stats}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("dining: %w", err)
	}
	rep := &Report{StatesExplored: res.StatesExplored, Complete: res.Complete, Stats: res.Stats}
	if res.Violation != nil {
		if res.Violation.Reason[:5] == "stuck" {
			rep.Deadlocked = res.Violation.Schedule
		} else {
			rep.ExclusionViolated = res.Violation.Schedule
		}
	}
	return rep, nil
}

// FindDeadlockRoundRobin runs the program under the round-robin schedule
// and reports the round after which the machine state stopped changing
// with processors still live — a witness that the schedule deadlocks (a
// repeated state under a periodic schedule repeats forever). Returns
// (0, false) when the machine halts or keeps progressing.
//
// This is the cheap, existential face of DP: impossibility needs only
// one bad schedule, and round-robin — the schedule that keeps similar
// philosophers in lock step — is it.
func FindDeadlockRoundRobin(sys *system.System, prog *machine.Program, maxRounds int) (int, bool, error) {
	m, err := machine.New(sys, system.InstrL, prog)
	if err != nil {
		return 0, false, fmt.Errorf("dining: %w", err)
	}
	n := sys.NumProcs()
	seen := map[string]bool{m.Fingerprint(): true}
	for r := 1; r <= maxRounds; r++ {
		for p := 0; p < n; p++ {
			if err := m.Step(p); err != nil {
				return 0, false, fmt.Errorf("dining: %w", err)
			}
		}
		if m.AllHalted() {
			return 0, false, nil
		}
		fp := m.Fingerprint()
		if seen[fp] {
			// A revisited global state under a periodic deterministic
			// schedule repeats forever: progress (meal counters are part
			// of the state) has stopped for good.
			return r, true, nil
		}
		seen[fp] = true
	}
	return 0, false, nil
}

// RunFair executes the program under round-robin for the given number of
// rounds and returns each philosopher's meal count.
func RunFair(sys *system.System, prog *machine.Program, rounds int) ([]int, error) {
	m, err := machine.New(sys, system.InstrL, prog)
	if err != nil {
		return nil, fmt.Errorf("dining: %w", err)
	}
	rr, err := sched.RoundRobin(sys.NumProcs(), rounds)
	if err != nil {
		return nil, fmt.Errorf("dining: %w", err)
	}
	if _, err := m.Run(rr); err != nil {
		return nil, fmt.Errorf("dining: %w", err)
	}
	return Meals(m), nil
}

// Meals returns each philosopher's meal count (zero when the counter was
// never initialized, e.g. the processor crashed before its first step).
func Meals(m *machine.Machine) []int {
	meals := make([]int, m.NumProcs())
	for p := range meals {
		if v, ok := m.Local(p, "meals"); ok {
			meals[p], _ = v.(int)
		}
	}
	return meals
}

// GreedyProgram is the strawman that ignores locking: read both forks,
// and if both look free, mark them taken and eat. Exclusion fails under
// schedules that interleave the reads — the Figure 4 "all philosophers
// eat together" scenario in miniature (runs in S).
func GreedyProgram() (*machine.Program, error) {
	b := machine.NewBuilder()
	l, r0 := b.Sym("_l"), b.Sym("_r")
	eatingS, markS := b.Sym("eating"), b.Sym("_mark")
	b.Read("left", "_l")
	b.Read("right", "_r")
	b.JumpIf(func(r *machine.Regs) bool {
		return r.Get(l) != "0" || r.Get(r0) != "0"
	}, "skip")
	b.Compute(func(r *machine.Regs) {
		r.Set(eatingS, true)
		r.Set(markS, "taken")
	})
	b.Write("left", "_mark")
	b.Write("right", "_mark")
	b.Label("skip")
	b.Halt()
	return b.Build()
}

// CheckGreedy model-checks the greedy program (instruction set S) for
// exclusion violations.
func CheckGreedy(sys *system.System, maxStates int) (*Report, error) {
	prog, err := GreedyProgram()
	if err != nil {
		return nil, err
	}
	exclusion, err := ExclusionPred(sys)
	if err != nil {
		return nil, err
	}
	res, err := mc.Check(func() (*machine.Machine, error) {
		return machine.New(sys, system.InstrS, prog)
	}, mc.Options{
		MaxStates:  maxStates,
		StatePreds: []mc.StatePredicate{exclusion},
	})
	if err != nil {
		return nil, fmt.Errorf("dining: %w", err)
	}
	rep := &Report{StatesExplored: res.StatesExplored, Complete: res.Complete, Stats: res.Stats}
	if res.Violation != nil {
		rep.ExclusionViolated = res.Violation.Schedule
	}
	return rep, nil
}
