package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"simsym"
	"simsym/internal/adversary"
	"simsym/internal/dining"
	"simsym/internal/machine"
	"simsym/internal/mc"
	"simsym/internal/obs"
	"simsym/internal/system"
)

// sampleSpec is the sample workload's input: a statistical check of the
// n-philosopher table under lock-drop faults, one worker.
type sampleSpec struct {
	n              int
	epsilon, delta float64
	depth          int
}

var (
	sampleFull  = sampleSpec{n: 256, epsilon: 0.02, delta: 0.05, depth: 1024}
	sampleShort = sampleSpec{n: 16, epsilon: 0.1, delta: 0.05, depth: 256}
)

const sampleFaults = "lockdrop"

func (s sampleSpec) options(seed int64) []simsym.Option {
	return []simsym.Option{
		simsym.WithConfidence(s.epsilon, s.delta),
		simsym.WithDepth(s.depth),
		simsym.WithFaults(sampleFaults),
		simsym.WithSeed(seed),
		simsym.WithWorkers(1),
	}
}

// sampleGate checks one statistical report: the full Okamoto target was
// sampled, and a second run with the same seed is byte-identical.
func sampleGate(rep, again *simsym.StatReport, target int) error {
	if rep.Samples != target || rep.Target != target || !rep.Complete {
		return fmt.Errorf("sample: %d samples of target %d (complete=%v), want %d",
			rep.Samples, rep.Target, rep.Complete, target)
	}
	a, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	b, err := json.Marshal(again)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("sample: two runs with the same seed differ")
	}
	return nil
}

// replayGate replays a report's first counterexample, schedule and fault
// log, through the adversary replayer; it must reach the same violation.
func replayGate(sys *system.System, prog *machine.Program, rep *simsym.StatReport) error {
	if rep.Safe {
		return nil
	}
	excl, err := dining.LocalExclusionPred(sys)
	if err != nil {
		return err
	}
	h := adversary.Harness{
		Sys:       sys,
		Instr:     system.InstrL,
		Prog:      prog,
		Sched:     adversary.FromSlice(rep.Schedule),
		Faults:    adversary.NewReplayer(rep.Faults),
		MaxSlots:  len(rep.Schedule),
		ProcPreds: []mc.ProcPredicate{excl},
	}
	res, err := h.Run()
	if err != nil {
		return err
	}
	if res.Violation == nil || res.Violation.Reason != rep.Violation {
		return fmt.Errorf("sample: counterexample replay gave %+v, want %q", res.Violation, rep.Violation)
	}
	return nil
}

func runSample(o options, r *report, tr *tracer) error {
	spec := sampleFull
	if o.short {
		spec = sampleShort
	}
	defer onThread()()
	var sys *system.System
	var prog *machine.Program
	setup, err := timeSetup(&refClock{}, 15, 100, func() error {
		var err error
		if sys, err = simsym.Dining(spec.n); err != nil {
			return err
		}
		prog, err = simsym.DiningProgram("left", "right", 2)
		return err
	})
	if err != nil {
		return err
	}
	target := simsym.OkamotoSamples(spec.epsilon, spec.delta)
	fmt.Fprintf(o.log, "sample: Dining(%d), eps=%g delta=%g (%d trials), depth %d, faults %s, base seed %d, 1 worker\n",
		spec.n, spec.epsilon, spec.delta, target, spec.depth, sampleFaults, o.seed)

	// Estimates repeat with the benchmark's seed until the window is
	// spent, at least three times: every repeat must be byte-identical to
	// the first.
	var cpuMs, wallLat, peaks []float64
	var first *simsym.StatReport
	// The kernel also runs at each of the estimate's round boundaries;
	// its time is taken out of the estimate's.
	clk := &refClock{}
	clk.tick()
	var inKernel time.Duration
	rec := obs.New(obs.FuncSink(func(e obs.Event) {
		if e.Kind == obs.KindSample {
			inKernel += clk.tick()
		}
	}))
	opts := append(spec.options(o.seed), simsym.WithObserver(rec))
	rt0 := readRuntime()
	start := time.Now()
	window := time.Duration(o.seconds * float64(time.Second))
	for len(cpuMs) < 3 || time.Since(start) < window {
		resetPeakRSS()
		inKernel = 0
		t0, c0 := time.Now(), threadCPU()
		rep, err := simsym.CheckStatisticalDining(sys, prog, opts...)
		d, c := time.Since(t0)-inKernel, threadCPU()-c0-inKernel
		if err != nil {
			return err
		}
		if first == nil {
			first = rep
		}
		gerr := sampleGate(first, rep, target)
		r.op(gerr != nil)
		r.gate(gerr)
		peak, err := peakRSSMB("self")
		if err != nil {
			return err
		}
		cpuMs = append(cpuMs, ms(c))
		wallLat = append(wallLat, ms(d))
		peaks = append(peaks, peak)
	}
	rt1 := readRuntime()
	clk.tick()
	estimateMs := median(cpuMs) * clk.scale()
	rate := float64(target) / estimateMs * 1e3
	rss := median(peaks)
	gerr := replayGate(sys, prog, first)
	r.op(gerr != nil)
	r.gate(gerr)
	r.e2e["setup_s"] = setup
	r.e2e["peak_rss_mb"] = rss
	r.e2e["throughput_per_cpu_s"] = rate
	r.e2e["op_cpu_ms"] = estimateMs
	r.metric("setup_s", setup, "s", "reference CPU time, median of 15 batches of 100 builds")
	r.metric("trials_per_s", rate, "1/s", fmt.Sprintf("per reference CPU second, median of %d estimates", len(cpuMs)))
	r.metric("estimate_ms", estimateMs, "ms", fmt.Sprintf("reference CPU time; %d violations, %d steps", first.Violations, first.Stats.Steps))
	r.metric("estimate_cpu_ms", median(cpuMs), "ms", fmt.Sprintf("CPU time on this host, kernel %.4g ms; not gated", clk.kernelMs()))
	r.metric("estimate_wall_ms", median(wallLat), "ms", "wall time on this host; not gated")
	r.metric("peak_rss_mb", rss, "MB", fmt.Sprintf("benchmark process, median of %d per-operation peaks", len(peaks)))

	if tr == nil {
		return nil
	}
	estimates := float64(len(cpuMs))
	r.layer("runtime.gc_cpu_share", gcShare(rt0, rt1))
	r.layer("runtime.alloc_bytes_per_trial", (rt1.allocBytes-rt0.allocBytes)/estimates/float64(target))
	return traceSample(o, r, tr, spec, sys, prog, first, median(wallLat))
}

// traceSample replays the estimate's trials through the public Harness
// Start/Advance/Finalize on the same per-trial seeds the facade derives,
// timing each call. Its violation count must match the facade's.
func traceSample(o options, r *report, tr *tracer, spec sampleSpec, sys *system.System,
	prog *machine.Program, want *simsym.StatReport, untracedMs float64) error {
	excl, err := dining.LocalExclusionPred(sys)
	if err != nil {
		return err
	}
	faults, err := adversary.ParseSpec(sampleFaults, o.seed)
	if err != nil {
		return err
	}
	base := adversary.Harness{
		Sys:       sys,
		Instr:     system.InstrL,
		Prog:      prog,
		MaxSlots:  spec.depth,
		ProcPreds: []mc.ProcPredicate{excl},
	}
	var startNs, advanceNs, steps, trialNs int64
	violations := 0
	root := tr.begin("bench.sample", 0)
	for i := 0; i < want.Samples; i++ {
		op := int64(i)
		t0 := time.Now()
		trial := tr.begin("bench.trial", op)
		seed := mc.SampleSeed(o.seed, i)
		h := base
		h.Sched = adversary.Uniform(rand.New(rand.NewSource(seed)), sys.NumProcs())
		fs := faults
		fs.CrashSeed, fs.StallSeed, fs.DropSeed = seed+1, seed+2, seed+3
		h.Faults = adversary.NewFaults(fs, sys.NumProcs(), sys.NumVars())
		sp := tr.begin("adversary.start", op)
		e, err := h.Start()
		startNs += int64(tr.end(sp))
		if err != nil {
			return err
		}
		sp = tr.begin("adversary.advance", op)
		_, err = e.Advance(spec.depth)
		advanceNs += int64(tr.end(sp))
		if err != nil {
			return err
		}
		sp = tr.begin("adversary.finalize", op)
		res := e.Finalize()
		tr.end(sp)
		tr.end(trial)
		trialNs += int64(time.Since(t0))
		steps += int64(res.Steps)
		if res.Violation != nil {
			violations++
		}
	}
	tracedMs := ms(tr.end(root))
	var gerr error
	if violations != want.Violations || steps != int64(want.Stats.Steps) {
		gerr = fmt.Errorf("traced sample: %d violations and %d steps, facade saw %d and %d",
			violations, steps, want.Violations, want.Stats.Steps)
	}
	r.op(gerr != nil)
	r.gate(gerr)
	n := float64(want.Samples)
	r.layer("adversary.trial_start_us", float64(startNs)/n/1e3)
	r.layer("adversary.step_ns", float64(advanceNs)/float64(steps))
	r.layer("adversary.steps_per_trial", float64(steps)/n)
	r.layer("sample.violation_share", float64(violations)/n)
	r.layer("mc.sample_overhead_share", (untracedMs-ms(time.Duration(trialNs)))/untracedMs)
	finishTrace(r, tr, root, tracedMs, untracedMs)
	return nil
}
