// Command simrun runs one of the two algorithms simsymd sessions host on
// a system read from a sysdsl spec or generator:
//
//   - -kind select decides the selection problem under a chosen model
//     and, when solvable, generates the paper's SELECT program
//     (Algorithm 2 in Q, Algorithm 4 in L), runs it under fair
//     schedules, and reports the winner;
//   - -kind dining runs the fork-locking philosopher program: the
//     deterministic DP deadlock on the Figure 4 table, the DP' solution
//     on the Figure 5 flipped table, or (-random) the Lehmann–Rabin
//     randomized fallback that works even at prime table sizes.
//
// Either kind takes a seeded fault run (-faults, -seed, -replay) and
// model-checks its invariants with -verify.
//
// Usage:
//
//	simrun -gen fig2 -instr q
//	simrun -spec sys.txt -instr l -sched fair -runs 10 -verify
//	simrun -gen fig2 -faults crash -seed 7 -replay
//	simrun -kind dining -gen 'dining 5'                    # Figure 4: watch the deadlock
//	simrun -kind dining -gen 'dining-flipped 6' -verify    # Figure 5: model-checked solution
//	simrun -kind dining -gen 'dining 5' -random            # Lehmann–Rabin randomized run
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"simsym/internal/adversary"
	"simsym/internal/dining"
	"simsym/internal/machine"
	"simsym/internal/mc"
	"simsym/internal/obs"
	"simsym/internal/obsflag"
	"simsym/internal/randomized"
	"simsym/internal/sched"
	"simsym/internal/selection"
	"simsym/internal/sysdsl"
	"simsym/internal/system"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simrun:", err)
		os.Exit(1)
	}
}

// faultRunSlots is the fault run's overall slot budget.
const faultRunSlots = 20000

// config is the flag set both kinds share.
type config struct {
	faults    string
	seeding   adversary.Seeding
	seed      int64
	replay    bool
	verify    bool
	maxStates int
	rec       *obs.Recorder
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("simrun", flag.ContinueOnError)
	kind := fs.String("kind", "select", "hosted algorithm: select or dining")
	spec := fs.String("spec", "", "system description file (sysdsl format, - for stdin)")
	gen := fs.String("gen", "", "generator directive, e.g. 'fig2' or 'dining-flipped 4'")
	instr := fs.String("instr", "q", "select: instruction set s, l, or q")
	schedFlag := fs.String("sched", "fair", "select: schedule class general, fair, or bounded")
	runs := fs.Int("runs", 5, "select: fair executions of the generated program")
	meals := fs.Int("meals", 3, "dining: meals per philosopher")
	rounds := fs.Int("rounds", 500, "dining: round-robin rounds to run")
	random := fs.Bool("random", false, "dining: run the Lehmann-Rabin randomized algorithm instead")
	var c config
	fs.BoolVar(&c.verify, "verify", false, "model-check the invariants over all schedules (select: Uniqueness and Stability; dining: exclusion and deadlock)")
	fs.IntVar(&c.maxStates, "max-states", 300_000, "model-checker state budget")
	fs.StringVar(&c.faults, "faults", "", "comma-separated fault classes to inject: crash, stall, lockdrop")
	fs.Int64Var(&c.seed, "seed", 1, "seed for the fault-injected run (schedule and fault streams) and the randomized dining run")
	fs.BoolVar(&c.replay, "replay", false, "replay the fault-injected run's trace and verify it is byte-identical")
	obsFlags := obsflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rec, err := obsFlags.Recorder()
	if err != nil {
		return err
	}
	c.rec = rec
	// Fault runs use the same seeding rule as simsymd sessions, with the
	// (2n-1)-bounded fair shuffled schedule.
	if c.seeding, err = adversary.NewSeeding("shuffled", c.faults); err != nil {
		return err
	}

	sys, err := sysdsl.Load(*spec, *gen, os.Stdin)
	if err != nil {
		return err
	}
	switch *kind {
	case "select":
		err = runSelect(out, sys, *instr, *schedFlag, *runs, &c)
	case "dining":
		err = runDining(out, sys, *meals, *rounds, *random, &c)
	default:
		err = fmt.Errorf("unknown kind %q (want select or dining)", *kind)
	}
	if err != nil {
		return err
	}
	return obsFlags.Close(out)
}

func runSelect(out io.Writer, sys *system.System, instr, schedClass string, runs int, c *config) error {
	is, err := system.ParseInstrSet(instr)
	if err != nil {
		return err
	}
	sc, err := system.ParseScheduleClass(schedClass)
	if err != nil {
		return err
	}

	d, err := selection.DecideWith(sys, is, sc, c.rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "model: %v / %v\n", is, sc)
	fmt.Fprintf(out, "solvable: %v\n", d.Solvable)
	fmt.Fprintf(out, "reason: %s\n", d.Reason)
	if len(d.UniqueProcs) > 0 {
		fmt.Fprintf(out, "distinguished processors: %v\n", d.UniqueProcs)
	}
	if len(d.Elite) > 0 {
		fmt.Fprintf(out, "ELITE: %v over %d versions\n", d.Elite, d.NumVersions)
	}
	if !d.Solvable || (is != system.InstrQ && is != system.InstrL) {
		return nil
	}

	prog, _, err := selection.SelectWith(sys, is, sc, c.rec)
	if err != nil {
		return err
	}
	for seed := 0; seed < runs; seed++ {
		m, err := machine.New(sys, is, prog)
		if err != nil {
			return err
		}
		m.Observe(c.rec)
		rng := rand.New(rand.NewSource(int64(seed)))
		rounds := 0
		for !m.AllHalted() && rounds < 5000 {
			round, err := sched.ShuffledRounds(rng, sys.NumProcs(), 1)
			if err != nil {
				return err
			}
			if _, err := m.Run(round); err != nil {
				return err
			}
			rounds++
		}
		fmt.Fprintf(out, "run %d: winner %s after %d rounds\n", seed, winner(sys, m), rounds)
	}

	if c.faults != "" {
		h, err := adversary.NewSelectHarness(sys, is, sc, nil)
		if err != nil {
			return err
		}
		outcome := func(res *adversary.Result) string {
			if !res.Done {
				return "no convergence within budget (faults may have blocked progress)"
			}
			return "converged, winner " + winner(sys, res.Final)
		}
		if _, err := runFaulted(out, h, c, outcome); err != nil {
			return err
		}
	}

	if c.verify {
		res, err := mc.Check(func() (*machine.Machine, error) {
			return machine.New(sys, is, prog)
		}, mc.Options{
			MaxStates:  c.maxStates,
			StatePreds: []mc.StatePredicate{mc.UniquenessPred},
			TransPreds: []mc.TransitionPredicate{mc.StabilityPred},
			Obs:        c.rec,
		})
		switch {
		case err != nil:
			fmt.Fprintf(out, "verification: inconclusive (%v)\n", err)
		case res.Violation != nil:
			fmt.Fprintf(out, "verification: VIOLATION %s (schedule %v)\n",
				res.Violation.Reason, res.Violation.Schedule)
		default:
			fmt.Fprintf(out, "verification: safe over %d states (complete=%v)\n",
				res.StatesExplored, res.Complete)
		}
	}
	return nil
}

// winner names m's single selected processor, "none" when nothing is
// selected, and the selected set as a violation otherwise.
func winner(sys *system.System, m *machine.Machine) string {
	switch sel := m.SelectedProcs(); {
	case len(sel) == 1:
		return sys.ProcIDs[sel[0]]
	case len(sel) > 1:
		return fmt.Sprintf("VIOLATION %v", sel)
	}
	return "none"
}

func runDining(out io.Writer, sys *system.System, meals, rounds int, random bool, c *config) error {
	n := sys.NumProcs()
	if random {
		rng := rand.New(rand.NewSource(c.seed))
		res, err := randomized.LehmannRabin(rng, n, rounds*n*4)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Lehmann-Rabin on %d philosophers, %d steps:\n", n, res.Steps)
		for p, m := range res.Meals {
			fmt.Fprintf(out, "  philosopher %d ate %d times\n", p, m)
		}
		return nil
	}

	prog, err := dining.Program("left", "right", meals)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "table: %d philosophers, program: lock left, lock right, eat\n", n)

	oneMeal, err := dining.Program("left", "right", 1)
	if err != nil {
		return err
	}
	round, deadlocked, err := dining.FindDeadlockRoundRobin(sys, oneMeal, 300)
	if err != nil {
		return err
	}
	if deadlocked {
		fmt.Fprintf(out, "round-robin: DEADLOCK after round %d (every philosopher holds one fork)\n", round)
	} else {
		got, err := dining.RunFair(sys, prog, rounds)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "round-robin meals: %v\n", got)
	}

	if c.faults != "" {
		h, err := adversary.NewDiningHarness(sys, meals, nil)
		if err != nil {
			return err
		}
		outcome := func(res *adversary.Result) string {
			return fmt.Sprintf("exclusion held, meals %v", dining.Meals(res.Final))
		}
		if _, err := runFaulted(out, h, c, outcome); err != nil {
			return err
		}
	}

	if c.verify {
		rep, err := dining.CheckWith(sys, oneMeal, mc.Options{MaxStates: c.maxStates, Obs: c.rec})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "model check over %d states (complete=%v):\n", rep.StatesExplored, rep.Complete)
		if rep.ExclusionViolated != nil {
			fmt.Fprintf(out, "  exclusion VIOLATED, schedule %v\n", rep.ExclusionViolated)
		} else {
			fmt.Fprintln(out, "  exclusion holds")
		}
		if rep.Deadlocked != nil {
			fmt.Fprintf(out, "  deadlock reachable, schedule %v\n", rep.Deadlocked)
		} else {
			fmt.Fprintln(out, "  no deadlock found")
		}
	}
	return nil
}

// runFaulted drives h through a seeded fault run, reporting the fault
// log and either the first invariant violation or the kind's outcome
// line, and with -replay proves the trace replays byte-identically. The
// schedule is Shuffled and the streams follow adversary.Seeding, so a
// simsymd session with SchedKind "shuffled", the same seed, fault
// classes and MaxSlots runs exactly this trace. Crashes and stalls only
// cost progress; lock-drop attacks the locking assumption itself and
// may surface a replayable exclusion violation.
func runFaulted(out io.Writer, h *adversary.Harness, c *config, outcome func(*adversary.Result) string) (*adversary.Result, error) {
	c.seeding.Install(h, c.seed)
	h.MaxSlots = faultRunSlots
	h.Obs = c.rec
	res, err := h.Run()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "fault run (seed %d, faults %s): steps=%d slots=%d events=%d done=%v\n",
		c.seed, c.faults, res.Steps, res.Slots, len(res.FaultLog), res.Done)
	for _, e := range res.FaultLog {
		if e.Kind != adversary.KindStall {
			fmt.Fprintf(out, "  fault %v\n", e)
		}
	}
	if res.Violation != nil {
		fmt.Fprintf(out, "fault run: VIOLATION %s (slot %d, %d-slot trace recorded)\n",
			res.Violation.Reason, res.Violation.Slot, len(res.Schedule))
	} else {
		fmt.Fprintf(out, "fault run: %s\n", outcome(res))
	}
	if c.replay {
		rep, err := h.Replay(res)
		if err != nil {
			return nil, err
		}
		if d := res.Diff(rep); d != "" {
			return nil, fmt.Errorf("replay diverged: %s", d)
		}
		fmt.Fprintf(out, "replay: byte-identical (%d slots, %d fault events, fingerprint match)\n",
			rep.Slots, len(rep.FaultLog))
	}
	return res, nil
}
