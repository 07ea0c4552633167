package simsym_test

import (
	"bytes"
	"fmt"
	"reflect"

	"simsym"
)

// The options-based API threads an observer through a whole decision:
// the event stream shows the phases and refinement work, the metrics
// registry aggregates counters. The positional Decide is the same call
// without options.
func ExampleDecideOpts() {
	sys, _ := simsym.Ring(6)
	sys.ProcInit[0] = "leader" // break the symmetry

	ring := simsym.NewEventRing(0)
	rec := simsym.NewRecorder(ring)
	d, err := simsym.DecideOpts(sys, simsym.InstrQ, simsym.SchedFair,
		simsym.WithObserver(rec))
	if err != nil {
		panic(err)
	}
	fmt.Println("solvable:", d.Solvable)

	kinds := ring.CountByKind()
	fmt.Println("distinct event kinds:", len(kinds) >= 5)
	fmt.Println("refine rounds counted:",
		rec.Metrics().Counter("core.refine_rounds").Value() > 0)
	// Output:
	// solvable: true
	// distinct event kinds: true
	// refine rounds counted: true
}

// CheckOpts is the one safety-check entry point: budgets, symmetry
// reduction, and parallelism ride in through options, and the report
// carries the witness schedule and engine statistics.
func ExampleCheckOpts() {
	sys := simsym.Fig1()
	prog, _, err := simsym.BuildSelectOpts(sys, simsym.InstrL, simsym.SchedFair)
	if err != nil {
		panic(err)
	}
	rep, err := simsym.CheckOpts(sys, simsym.InstrL, prog,
		simsym.WithMaxStates(50_000))
	if err != nil {
		panic(err)
	}
	fmt.Println("safe:", rep.Safe)
	fmt.Println("exhausted:", rep.Exhausted) // bounded evidence, not proof
	fmt.Println("states:", rep.StatesExplored)
	// Output:
	// safe: true
	// exhausted: states
	// states: 50000
}

// A dynamic system keeps the similarity labeling of a mutating topology
// up to date; a seeded churn stream drives it with replayable
// join/leave/crash/restart/rewire events, and the incrementally repaired
// labeling always matches a from-scratch labeling of the snapshot.
func ExampleNewDynSystem() {
	sys, err := simsym.Tree(7)
	if err != nil {
		panic(err)
	}
	d, err := simsym.NewDynSystem(sys, simsym.RuleQ)
	if err != nil {
		panic(err)
	}
	fmt.Println("initial processor classes:", d.Labeling().NumProcClasses())

	churn, err := simsym.NewChurn(7, d, simsym.ChurnOpts{MaxProcs: 12})
	if err != nil {
		panic(err)
	}
	for i := 0; i < 25; i++ {
		if _, _, err := churn.Step(); err != nil {
			panic(err)
		}
	}
	fresh, err := simsym.SimilarityOpts(d.Snapshot(), simsym.RuleQ)
	if err != nil {
		panic(err)
	}
	fmt.Println("events:", churn.Events())
	fmt.Println("matches recompute:",
		d.Labeling().NumProcClasses() == fresh.NumProcClasses() &&
			d.Labeling().NumVarClasses() == fresh.NumVarClasses())
	// Output:
	// initial processor classes: 3
	// events: 25
	// matches recompute: true
}

// Sinks compose: MultiSink fans one recorder's events out to an
// in-memory ring and a JSON-lines stream, and ReadJSONL decodes the
// stream back into the same events.
func ExampleMultiSink() {
	var buf bytes.Buffer
	jsonl := simsym.NewJSONLSink(&buf)
	ring := simsym.NewEventRing(0)
	rec := simsym.NewRecorder(simsym.MultiSink(ring, jsonl))

	sys, _ := simsym.Ring(6)
	sys.ProcInit[0] = "leader"
	if _, err := simsym.SimilarityOpts(sys, simsym.RuleQ, simsym.WithObserver(rec)); err != nil {
		panic(err)
	}
	if err := jsonl.Close(); err != nil {
		panic(err)
	}
	events, err := simsym.ReadJSONL(&buf)
	if err != nil {
		panic(err)
	}
	fmt.Println("events recorded:", len(events) > 0)
	fmt.Println("stream equals ring:", reflect.DeepEqual(events, ring.Events()))
	// Output:
	// events recorded: true
	// stream equals ring: true
}

// WithConfig applies a whole RunConfig — the document a simsymd session
// carries as its "config" — in one option.
func ExampleWithConfig() {
	sys := simsym.Fig1()
	prog, _, err := simsym.BuildSelectOpts(sys, simsym.InstrL, simsym.SchedFair)
	if err != nil {
		panic(err)
	}
	cfg := simsym.RunConfig{MaxStates: 10_000}
	rep, err := simsym.CheckOpts(sys, simsym.InstrL, prog, simsym.WithConfig(cfg))
	if err != nil {
		panic(err)
	}
	fmt.Println("safe:", rep.Safe)
	fmt.Println("exhausted:", rep.Exhausted)
	fmt.Println("states:", rep.StatesExplored)
	// Output:
	// safe: true
	// exhausted: states
	// states: 10000
}
