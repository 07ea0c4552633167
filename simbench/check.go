package main

import (
	"fmt"
	"time"

	"simsym"
	"simsym/internal/canon"
	"simsym/internal/dining"
	"simsym/internal/machine"
	"simsym/internal/mc"
	"simsym/internal/obs"
	"simsym/internal/system"
)

// checkSpec is the check workload's input: an exhaustive sequential
// closure of the flipped dining table running the lock-left-then-right
// program under InstrL, with its known state count.
type checkSpec struct {
	n, meals, states int
}

var (
	checkFull  = checkSpec{n: 4, meals: 2, states: 366_160}
	checkShort = checkSpec{n: 4, meals: 1, states: 41_737}
)

// checkMaxStates lifts the checker's default state budget above the
// closure's size; every other mc.Options field keeps its default
// (sequential, unsharded, no symmetry reduction) but the observer, which
// hears only level boundaries.
const checkMaxStates = 1 << 30

// probeEvery is how many predicate calls pass between two probes of the
// machine and canon layers in the traced closure.
const probeEvery = 64

// checkVerdict is the check workload's correctness gate: the closure is
// complete, exclusion holds, nothing deadlocks, and exactly the known
// number of states was explored.
func checkVerdict(what string, rep *dining.Report, want int) error {
	switch {
	case !rep.Complete:
		return fmt.Errorf("check %s: state space did not close", what)
	case rep.ExclusionViolated != nil:
		return fmt.Errorf("check %s: exclusion violated by schedule %v", what, rep.ExclusionViolated)
	case rep.Deadlocked != nil:
		return fmt.Errorf("check %s: deadlock reached by schedule %v", what, rep.Deadlocked)
	case rep.StatesExplored != want:
		return fmt.Errorf("check %s: %d states, want %d", what, rep.StatesExplored, want)
	}
	return nil
}

func runCheck(o options, r *report, tr *tracer) error {
	spec := checkFull
	if o.short {
		spec = checkShort
	}
	defer onThread()()
	var sys *system.System
	var prog *machine.Program
	setup, err := timeSetup(&refClock{}, 15, 2000, func() error {
		var err error
		if sys, err = system.DiningFlipped(spec.n); err != nil {
			return err
		}
		prog, err = dining.Program("left", "right", spec.meals)
		return err
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(o.log, "check: DiningFlipped(%d), meals %d, InstrL, want %d states\n", spec.n, spec.meals, spec.states)

	// Warm-up closure through the public facade, which must give the
	// same verdict as the internal engine.
	frep, err := simsym.CheckDiningOpts(sys, prog, simsym.WithMaxStates(checkMaxStates))
	if err != nil {
		return err
	}
	ferr := checkVerdict("facade CheckDiningOpts", frep, spec.states)
	r.op(ferr != nil)
	r.gate(ferr)

	// The kernel also runs at the closure's level boundaries; its time is
	// taken out of the closure's.
	clk := &refClock{}
	clk.tick()
	var inKernel time.Duration
	opts := mc.Options{MaxStates: checkMaxStates, Obs: obs.New(obs.FuncSink(func(e obs.Event) {
		if e.Kind == obs.KindStateExpansion {
			inKernel += clk.tickEvery()
		}
	}))}
	var cpuMs, wallLat, peaks []float64
	var last *dining.Report
	rt0 := readRuntime()
	start := time.Now()
	window := time.Duration(o.seconds * float64(time.Second))
	for len(cpuMs) < 3 || time.Since(start) < window {
		resetPeakRSS()
		inKernel = 0
		t0, c0 := time.Now(), threadCPU()
		rep, err := dining.CheckWith(sys, prog, opts)
		d, c := time.Since(t0)-inKernel, threadCPU()-c0-inKernel
		if err != nil {
			return err
		}
		gerr := checkVerdict("dining.CheckWith", rep, spec.states)
		if gerr == nil && rep.Stats.Transitions != frep.Stats.Transitions {
			gerr = fmt.Errorf("check: %d transitions, facade saw %d", rep.Stats.Transitions, frep.Stats.Transitions)
		}
		r.op(gerr != nil)
		r.gate(gerr)
		peak, err := peakRSSMB("self")
		if err != nil {
			return err
		}
		cpuMs = append(cpuMs, ms(c))
		wallLat = append(wallLat, ms(d))
		peaks = append(peaks, peak)
		last = rep
		clk.tickEvery()
	}
	rt1 := readRuntime()
	clk.tick()
	closureMs := median(cpuMs) * clk.scale()
	rate := float64(spec.states) / closureMs * 1e3
	rss := median(peaks)
	r.e2e["setup_s"] = setup
	r.e2e["peak_rss_mb"] = rss
	r.e2e["throughput_per_cpu_s"] = rate
	r.e2e["op_cpu_ms"] = closureMs
	r.metric("setup_s", setup, "s", "reference CPU time, median of 15 batches of 2000 builds")
	r.metric("states_per_s", rate, "1/s", fmt.Sprintf("per reference CPU second, median of %d closures", len(cpuMs)))
	r.metric("closure_ms", closureMs, "ms", "reference CPU time")
	r.metric("closure_cpu_ms", median(cpuMs), "ms", fmt.Sprintf("CPU time on this host, kernel %.4g ms; not gated", clk.kernelMs()))
	r.metric("closure_wall_ms", median(wallLat), "ms", "wall time on this host; not gated")
	r.metric("peak_rss_mb", rss, "MB", fmt.Sprintf("benchmark process, median of %d per-operation peaks", len(peaks)))

	if tr == nil {
		return nil
	}
	st := last.Stats
	closures := float64(len(cpuMs))
	r.layer("runtime.gc_cpu_share", gcShare(rt0, rt1))
	r.layer("runtime.alloc_bytes_per_state", (rt1.allocBytes-rt0.allocBytes)/closures/float64(st.StatesExplored))
	r.layer("mc.states", float64(st.StatesExplored))
	r.layer("mc.transitions", float64(st.Transitions))
	r.layer("mc.dedup_ratio", float64(st.DedupHits)/float64(st.Transitions))
	r.layer("mc.levels", float64(st.Depth))
	r.layer("mc.peak_frontier", float64(st.PeakFrontier))
	r.layer("mc.bytes_per_state", float64(st.PeakMemBytes)/float64(st.StatesExplored))
	r.layer("mc.delta_share", float64(st.DeltaStates)/float64(st.StatesExplored))
	if st.StoredKeyBytes > 0 {
		r.layer("mc.key_compression", float64(st.LogicalKeyBytes)/float64(st.StoredKeyBytes))
	}
	return traceCheck(r, tr, sys, prog, spec, st, median(wallLat))
}

// traceCheck runs one more closure through mc.Check with the dining
// predicates wrapped in timers, a sink stamping each BFS level, and
// probes that time the machine and canon layers on clones of sampled
// states. The probes never touch the explored states, so the verdict and
// counts must match the untraced closures.
func traceCheck(r *report, tr *tracer, sys *system.System, prog *machine.Program,
	spec checkSpec, want mc.Stats, untracedMs float64) error {
	excl, err := dining.ExclusionPred(sys)
	if err != nil {
		return err
	}
	root := tr.begin("bench.check", 0)
	run := tr.begin("mc.check", 0)
	pred := tr.aggregate("dining.pred")
	pr := newProber(tr)
	var calls int64
	wrap := func(p mc.StatePredicate) mc.StatePredicate {
		return func(m *machine.Machine) string {
			t0 := time.Now()
			msg := p(m)
			tr.count(pred, time.Since(t0))
			if calls++; calls%probeEvery == 0 {
				pr.probe(m)
			}
			return msg
		}
	}
	var levels []time.Time
	sink := obs.FuncSink(func(e obs.Event) {
		if e.Kind == obs.KindStateExpansion {
			levels = append(levels, time.Now())
		}
	})
	t0 := time.Now()
	res, err := mc.Check(func() (*machine.Machine, error) {
		return machine.New(sys, system.InstrL, prog)
	}, mc.Options{
		MaxStates:  checkMaxStates,
		StatePreds: []mc.StatePredicate{wrap(excl)},
		StuckBad:   wrap(mc.NotAllHalted),
		Obs:        obs.New(sink),
	})
	tracedMs := ms(tr.end(run))
	tr.end(root)
	if err != nil {
		return err
	}
	gerr := pr.err
	switch {
	case gerr != nil:
	case !res.Complete || res.Violation != nil:
		gerr = fmt.Errorf("traced check: complete=%v violation=%v", res.Complete, res.Violation)
	case res.StatesExplored != spec.states || res.Stats.Transitions != want.Transitions:
		gerr = fmt.Errorf("traced check: %d states and %d transitions, want %d and %d",
			res.StatesExplored, res.Stats.Transitions, spec.states, want.Transitions)
	}
	r.op(gerr != nil)
	r.gate(gerr)

	var levelMs []float64
	prev := t0
	for _, t := range levels {
		levelMs = append(levelMs, ms(t.Sub(prev)))
		prev = t
	}
	p50, _ := quantile(levelMs, 0.5)
	maxLevel, _ := quantile(levelMs, 1)
	r.layer("mc.level_ms_p50", p50)
	r.layer("mc.level_ms_max", maxLevel)

	ps := tr.spans[pred]
	r.layer("dining.pred_ns", float64(ps.Busy)/float64(ps.Calls))
	r.layer("dining.pred_calls", float64(ps.Calls))
	pr.report(r)

	// Estimated shares of the untraced closure: per-call probe costs
	// times the engine's call counts, with the index (and the rest of
	// the BFS bookkeeping) as the remainder.
	total := untracedMs * 1e6
	steps := float64(want.Transitions + want.SelfLoops)
	machineNs := (r.layers["machine.clone_ns"] + r.layers["machine.step_ns"] + r.layers["machine.key_ns"]) * steps
	canonNs := r.layers["canon.delta_encode_ns"]*float64(want.DeltaStates) +
		r.layers["canon.delta_equal_ns"]*float64(want.DedupHits)
	predNs := float64(ps.Busy)
	r.layer("check.machine_share", machineNs/total)
	r.layer("check.canon_share", canonNs/total)
	r.layer("check.pred_share", predNs/total)
	r.layer("check.index_share", 1-(machineNs+canonNs+predNs)/total)
	finishTrace(r, tr, root, tracedMs, untracedMs)
	return nil
}

// prober times the machine and canon layers on a clone of a state the
// checker hands its predicates: clone, key, one step, the child's key,
// and the delta encoding and comparison between the two keys.
type prober struct {
	tr                              *tracer
	clone, step, key, encode, equal int
	keyBytes, keys                  int64
	parentKey, childKey, delta      []byte
	scratch                         machine.Machine // the probe's clone, reused like the engine's pool slots
	err                             error
}

func newProber(tr *tracer) *prober {
	return &prober{
		tr:     tr,
		clone:  tr.aggregate("machine.clone"),
		step:   tr.aggregate("machine.step"),
		key:    tr.aggregate("machine.key"),
		encode: tr.aggregate("canon.delta_encode"),
		equal:  tr.aggregate("canon.delta_equal"),
	}
}

func (p *prober) probe(m *machine.Machine) {
	tr := p.tr
	c := &p.scratch
	t0 := time.Now()
	m.CloneInto(c)
	tr.count(p.clone, time.Since(t0))
	t0 = time.Now()
	p.parentKey = c.AppendStateKey(p.parentKey[:0], nil, nil)
	tr.count(p.key, time.Since(t0))
	live := -1
	for q := 0; q < c.NumProcs(); q++ {
		if !c.Halted(q) {
			live = q
			break
		}
	}
	if live < 0 {
		return
	}
	t0 = time.Now()
	err := c.Step(live)
	tr.count(p.step, time.Since(t0))
	if err != nil {
		p.err = fmt.Errorf("probe step: %w", err)
		return
	}
	t0 = time.Now()
	p.childKey = c.AppendStateKey(p.childKey[:0], nil, nil)
	tr.count(p.key, time.Since(t0))
	p.keyBytes += int64(len(p.parentKey) + len(p.childKey))
	p.keys += 2
	t0 = time.Now()
	delta, ok := canon.AppendKeyDelta(p.delta[:0], p.parentKey, p.childKey)
	tr.count(p.encode, time.Since(t0))
	if !ok {
		return
	}
	p.delta = delta
	t0 = time.Now()
	eq := canon.KeyDeltaEqual(p.parentKey, p.delta, p.childKey)
	tr.count(p.equal, time.Since(t0))
	if !eq && p.err == nil {
		p.err = fmt.Errorf("probe: key delta does not reproduce the child key")
	}
}

func (p *prober) report(r *report) {
	mean := func(id int) float64 {
		s := p.tr.spans[id]
		if s.Calls == 0 {
			return 0
		}
		return float64(s.Busy) / float64(s.Calls)
	}
	r.layer("machine.clone_ns", mean(p.clone))
	r.layer("machine.step_ns", mean(p.step))
	r.layer("machine.key_ns", mean(p.key))
	if p.keys > 0 {
		r.layer("machine.key_bytes", float64(p.keyBytes)/float64(p.keys))
	}
	r.layer("canon.delta_encode_ns", mean(p.encode))
	r.layer("canon.delta_equal_ns", mean(p.equal))
}
