package dining

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"simsym/internal/machine"
	"simsym/internal/mc"
	"simsym/internal/system"
)

// exclusionByName is the name-lookup recipe both exclusion predicates
// replaced: Local(p, "eating") for every philosopher of every pair.
func exclusionByName(pairs [][2]int, m *machine.Machine) string {
	eating := func(p int) bool {
		v, ok := m.Local(p, "eating")
		return ok && v == true
	}
	for _, pr := range pairs {
		if eating(pr[0]) && eating(pr[1]) {
			return fmt.Sprintf("adjacent philosophers %d and %d eating together", pr[0], pr[1])
		}
	}
	return ""
}

// TestExclusionPredSharedAcrossSampleWorkers shares one ExclusionPred
// and one LocalExclusionPred across mc.Sample's workers (run it under
// -race) while trials alternate between four programs, so the per-program
// slot resolution is republished concurrently: two fork-locking programs
// under lock drops, the lock-free greedy program, and a program that
// never interns "eating". After every step both predicates must agree
// with the name-lookup recipe, and the sampled verdict must not depend on
// the worker count.
func TestExclusionPredSharedAcrossSampleWorkers(t *testing.T) {
	sys, err := system.Dining(5)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := Adjacency(sys)
	if err != nil {
		t.Fatal(err)
	}
	type variant struct {
		prog  *machine.Program
		instr system.InstrSet
	}
	var variants []variant
	for _, meals := range []int{1, 2} {
		prog, err := Program("left", "right", meals)
		if err != nil {
			t.Fatal(err)
		}
		variants = append(variants, variant{prog, system.InstrL})
	}
	greedy, err := GreedyProgram()
	if err != nil {
		t.Fatal(err)
	}
	variants = append(variants, variant{greedy, system.InstrS})
	bl := machine.NewBuilder()
	bl.Halt()
	idle, err := bl.Build()
	if err != nil {
		t.Fatal(err)
	}
	variants = append(variants, variant{idle, system.InstrL})

	excl, err := ExclusionPred(sys)
	if err != nil {
		t.Fatal(err)
	}
	local, err := LocalExclusionPred(sys)
	if err != nil {
		t.Fatal(err)
	}
	trial := func(seed int64, depth int, _ bool) (mc.Trial, error) {
		rng := rand.New(rand.NewSource(seed))
		v := variants[rng.Intn(len(variants))]
		m, err := machine.New(sys, v.instr, v.prog)
		if err != nil {
			return mc.Trial{}, err
		}
		var tr mc.Trial
		for tr.Slots < depth {
			tr.Slots++
			p := rng.Intn(sys.NumProcs())
			if v.instr == system.InstrL && rng.Intn(8) == 0 {
				if err := m.DropLock(rng.Intn(sys.NumVars())); err != nil {
					return tr, err
				}
			}
			stepped, err := m.StepOrSkip(p)
			if err != nil {
				return tr, err
			}
			if !stepped {
				continue
			}
			tr.Steps++
			want := exclusionByName(pairs, m)
			if got := excl(m); got != want {
				return tr, fmt.Errorf("seed %d step %d: ExclusionPred %q, name lookup %q", seed, tr.Steps, got, want)
			}
			if got := local(m, p); got != "" && got != want {
				return tr, fmt.Errorf("seed %d step %d: LocalExclusionPred %q, name lookup %q", seed, tr.Steps, got, want)
			}
			if want != "" {
				tr.Violated, tr.Reason = true, want
				return tr, nil
			}
		}
		return tr, nil
	}
	var results []*mc.SampleResult
	for _, workers := range []int{1, 4} {
		res, err := mc.Sample(trial, mc.SampleOptions{
			MaxSamples: 400, Depth: 200, Workers: workers, Seed: 11, Partial: true,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		results = append(results, res)
	}
	res := results[0]
	if v := res.Stats.Violations; v == 0 || v == res.Stats.Samples {
		t.Fatalf("%d of %d trials violated exclusion; the programs should give both verdicts", v, res.Stats.Samples)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("worker counts disagree:\n  w=1: %+v\n  w=4: %+v", results[0], results[1])
	}
}
