package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"simsym/internal/core"
	"simsym/internal/obs"
	"simsym/internal/partition"
	"simsym/internal/system"
)

// similaritySpec sizes the similarity workload's three phases: a static
// labeling of a marked ring, tree leaf churn and ring splice churn.
type similaritySpec struct {
	markedRing, tree, ring int
}

var (
	similarityFull  = similaritySpec{markedRing: 65_536, tree: 10_000, ring: 100_000}
	similarityShort = similaritySpec{markedRing: 512, tree: 200, ring: 1_000}
)

// Shares of the timed window each phase gets, and the fewest repeats
// each needs: the tree's p90 needs ten events beyond it.
const (
	labelShare, treeShare, ringShare = 0.3, 0.2, 0.5
	minLabels, minTreeEvents         = 5, 100
	minRingEvents                    = 1_000
)

// Churn rates are medians over chunks of consecutive events, each chunk
// timed in process CPU time: a ring event takes microseconds, too short
// to time alone, and a tree event milliseconds.
const ringChunk, treeChunk = 1024, 1

// labelingGate compares an incrementally maintained labeling with the
// full recompute on the same snapshot.
func labelingGate(what string, got, want *core.Labeling) error {
	if !slices.Equal(got.ProcLabels, want.ProcLabels) || !slices.Equal(got.VarLabels, want.VarLabels) {
		return fmt.Errorf("similarity %s: incremental labeling differs from Similarity(Snapshot())", what)
	}
	return nil
}

// markedRingGate checks the static labeling of a ring with one marked
// processor: every processor is in a class of its own.
func markedRingGate(lab *core.Labeling, n int) error {
	if c := lab.NumProcClasses(); c != n {
		return fmt.Errorf("similarity: marked ring of %d has %d processor classes, want %d", n, c, n)
	}
	return nil
}

// simInputs is the similarity workload's set-up: the three systems and
// the two incremental engines' initial labelings.
type simInputs struct {
	marked     *system.System
	tree, ring *core.DynSystem
	treeIDs    []string
	ringIDs    []string
}

func buildSimilarity(spec similaritySpec) (*simInputs, error) {
	in := &simInputs{}
	var err error
	if in.marked, err = system.Ring(spec.markedRing); err != nil {
		return nil, err
	}
	in.marked.ProcInit[0] = "leader"
	tree, err := system.Tree(spec.tree)
	if err != nil {
		return nil, err
	}
	if in.tree, err = core.NewDynSystem(tree, core.RuleQ, core.Config{}); err != nil {
		return nil, err
	}
	ring, err := system.Ring(spec.ring)
	if err != nil {
		return nil, err
	}
	if in.ring, err = core.NewDynSystem(ring, core.RuleQ, core.Config{}); err != nil {
		return nil, err
	}
	in.treeIDs, in.ringIDs = tree.ProcIDs, ring.ProcIDs
	return in, nil
}

func runSimilarity(o options, r *report, tr *tracer) error {
	spec := similarityFull
	if o.short {
		spec = similarityShort
	}
	defer oneCore()()
	// Set up five times from an empty heap, so that no two copies of
	// the inputs are ever live at once.
	var in *simInputs
	var setups []float64
	setupClk := &refClock{}
	setupClk.tick()
	for i := 0; i < 5; i++ {
		in = nil
		runtime.GC()
		c0 := processCPU()
		var err error
		if in, err = buildSimilarity(spec); err != nil {
			return err
		}
		setups = append(setups, (processCPU() - c0).Seconds())
		setupClk.tick()
	}
	setup := median(setups) * setupClk.scale()
	fmt.Fprintf(o.log, "similarity: marked ring %d (RuleQ), tree churn at %d, ring churn at %d, seed %d\n",
		spec.markedRing, spec.tree, spec.ring, o.seed)
	window := o.seconds * float64(time.Second)

	// (a) Static labeling of the marked ring.
	var labelCPUMs, labelWallMs []float64
	labelClk := &refClock{}
	labelClk.tick()
	start := time.Now()
	for len(labelCPUMs) < minLabels || time.Since(start) < time.Duration(labelShare*window) {
		runtime.GC()
		t0, c0 := time.Now(), processCPU()
		lab, err := core.Similarity(in.marked, core.RuleQ)
		labelCPUMs = append(labelCPUMs, ms(processCPU()-c0))
		labelWallMs = append(labelWallMs, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		gerr := markedRingGate(lab, spec.markedRing)
		r.op(gerr != nil)
		r.gate(gerr)
		labelClk.tickEvery()
	}
	labelClk.tick()
	labelMs := median(labelCPUMs) * labelClk.scale()

	// (c) Ring splice churn, then (b) tree leaf churn, each from its own
	// seeded stream. The ring goes first so that the tree stream's
	// seed-dependent garbage does not reach its heap.
	rt0 := readRuntime()
	ringRun, err := churnPhase(r, in.ring, newSplicer(in.ring, in.ringIDs, "ring", o.seed+1),
		minRingEvents, ringChunk, time.Duration(ringShare*window), nil)
	if err != nil {
		return err
	}
	// Drop the large ring before the tree phase, so that the process's
	// peak RSS is set by the deterministic phases and not by how much the
	// tree stream's rebuilds allocate on top of the ring.
	in.ring = nil
	treeRun, err := churnPhase(r, in.tree, newSplicer(in.tree, in.treeIDs, "tree", o.seed),
		minTreeEvents, treeChunk, time.Duration(treeShare*window), nil)
	if err != nil {
		return err
	}
	rt1 := readRuntime()
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	treeP50, _ := quantile(treeRun.latMs, 0.5)
	treeP90, beyond := quantile(treeRun.latMs, 0.9)
	r.e2e["setup_s"] = setup
	r.e2e["peak_rss_mb"] = rss
	// The tree stream's rate depends on its seed: some streams drive the
	// engine into long runs of full rebuilds. It is reported below but not
	// gated; the ring stream's rate is.
	r.e2e["throughput_per_cpu_s"] = ringRun.perSec()
	// The static labeling is printed but not gated: its CPU time swings
	// with the host far more than the reference kernel does (see
	// README.md), so the gated operation is a ring splice event.
	r.e2e["op_cpu_ms"] = 1e3 / ringRun.perSec()
	r.metric("setup_s", setup, "s", "reference CPU time, median of 5 builds of all systems and initial labelings")
	r.metric("label_ms", labelMs, "ms", fmt.Sprintf("reference CPU time, median of %d static labelings; not gated", len(labelCPUMs)))
	r.metric("label_cpu_ms", median(labelCPUMs), "ms", fmt.Sprintf("CPU time on this host, kernel %.4g ms; not gated", labelClk.kernelMs()))
	r.metric("label_wall_ms", median(labelWallMs), "ms", "wall time on this host; not gated")
	r.metric("tree_events_per_s", treeRun.perSec(), "1/s", fmt.Sprintf("per reference CPU second; %d events", len(treeRun.latMs)))
	r.metric("tree_event_p50_ms", treeP50, "ms", "")
	r.metric("tree_event_p90_ms", treeP90, "ms", tailDetail(len(treeRun.latMs), beyond))
	r.metric("ring_events_per_s", ringRun.perSec(), "1/s", fmt.Sprintf("per reference CPU second, median of %d chunks of %d; %d events",
		len(ringRun.chunkRates), ringChunk, len(ringRun.latMs)))
	r.metric("peak_rss_mb", rss, "MB", "benchmark process")

	if tr == nil {
		return nil
	}
	r.layer("runtime.gc_cpu_share", gcShare(rt0, rt1))
	return traceSimilarity(o, r, tr, spec, in, median(labelWallMs), treeRun.perSec(), ringRun.perSec())
}

// churnRun is one churn phase's outcome; stats are kept only when
// tracing, so that untraced runs hold no per-event history but wall
// latencies and chunk rates.
type churnRun struct {
	latMs      []float64
	chunkRates []float64     // events per CPU second in each whole chunk
	cpu        time.Duration // the whole phase's CPU time, kernel runs excluded
	clk        refClock
	stats      []partition.UpdateStats
}

// perSec is the median chunk rate, or the phase's mean rate when not one
// chunk was completed, per reference CPU second.
func (c *churnRun) perSec() float64 {
	rate := float64(len(c.latMs)) / c.cpu.Seconds()
	if len(c.chunkRates) > 0 {
		rate = median(c.chunkRates)
	}
	return rate / c.clk.scale()
}

// churnPhase applies events from sp for at least window and minEvents,
// timing every chunk consecutive events in CPU time, then checks the
// incremental labeling against a full recompute on the
// final snapshot. With a tracer, every event and the recompute are spans.
func churnPhase(r *report, d *core.DynSystem, sp *splicer, minEvents, chunk int, window time.Duration,
	tr *tracer) (*churnRun, error) {
	run := &churnRun{}
	runtime.GC()
	run.clk.tick()
	start := time.Now()
	chunkStart := processCPU()
	for len(run.latMs) < minEvents || time.Since(start) < window {
		op := int64(len(run.latMs))
		var id int
		if tr != nil {
			id = tr.begin("core.dyn_apply", op)
		}
		t0 := time.Now()
		err := sp.step()
		d0 := time.Since(t0)
		if tr != nil {
			tr.end(id)
		}
		r.op(err != nil)
		if err != nil {
			return nil, fmt.Errorf("%s churn event %d: %w", sp.family, op, err)
		}
		run.latMs = append(run.latMs, ms(d0))
		if len(run.latMs)%chunk == 0 {
			c := processCPU() - chunkStart
			run.chunkRates = append(run.chunkRates, float64(chunk)/c.Seconds())
			run.cpu += c
			run.clk.tickEvery()
			chunkStart = processCPU()
		}
		if tr != nil {
			run.stats = append(run.stats, d.LastStats())
		}
	}
	run.cpu += processCPU() - chunkStart
	run.clk.tick()
	var id int
	if tr != nil {
		id = tr.begin("core.recompute", -1)
	}
	want, err := core.Similarity(d.Snapshot(), d.Rule())
	if tr != nil {
		tr.end(id)
	}
	if err != nil {
		return nil, err
	}
	gerr := labelingGate(sp.family+" churn", d.Labeling(), want)
	r.op(gerr != nil)
	r.gate(gerr)
	return run, nil
}

// traceSimilarity repeats the three phases with spans: the static
// labeling through SimilarityWith and a sink stamping its phase start
// and refinement rounds, and each churn event with its UpdateStats.
func traceSimilarity(o options, r *report, tr *tracer, spec similaritySpec, in *simInputs,
	untracedLabelMs, untracedTree, untracedRing float64) error {
	window := o.seconds * float64(time.Second)
	root := tr.begin("bench.similarity", 0)

	var phaseStart, lastRound time.Time
	var rounds, splits int64
	sink := obs.FuncSink(func(e obs.Event) {
		switch e.Kind {
		case obs.KindPhaseStart:
			if e.Name == "core.similarity" {
				phaseStart = time.Now()
			}
		case obs.KindRefineRound:
			lastRound = time.Now()
			rounds++
			splits += e.C
		}
	})
	rec := obs.New(sink)
	var labelMs []float64
	var structMs, refineMs, labelingMs float64
	start := time.Now()
	for len(labelMs) < minLabels || time.Since(start) < time.Duration(labelShare*window) {
		rounds, splits = 0, 0
		runtime.GC()
		op := int64(len(labelMs))
		id := tr.begin("bench.similarity_call", op)
		t0 := time.Now()
		lab, err := core.SimilarityWith(in.marked, core.RuleQ, core.Config{Obs: rec})
		t1 := time.Now()
		if err != nil {
			return err
		}
		if lastRound.Before(phaseStart) {
			lastRound = phaseStart // no refinement round was needed
		}
		tr.add("core.structure", t0, phaseStart, op)
		tr.add("partition.refine", phaseStart, lastRound, op)
		tr.add("core.labeling", lastRound, t1, op)
		tr.end(id)
		structMs += ms(phaseStart.Sub(t0))
		refineMs += ms(lastRound.Sub(phaseStart))
		labelingMs += ms(t1.Sub(lastRound))
		labelMs = append(labelMs, ms(t1.Sub(t0)))
		gerr := markedRingGate(lab, spec.markedRing)
		r.op(gerr != nil)
		r.gate(gerr)
	}
	calls := float64(len(labelMs))
	r.layer("core.structure_ms", structMs/calls)
	r.layer("partition.refine_ms", refineMs/calls)
	r.layer("core.labeling_ms", labelingMs/calls)
	r.layer("partition.rounds", float64(rounds))
	r.layer("partition.splits", float64(splits))

	// Fresh engines, so the traced streams replay the untraced ones.
	fresh, err := buildSimilarity(spec)
	if err != nil {
		return err
	}
	ringRun, err := churnPhase(r, fresh.ring, newSplicer(fresh.ring, fresh.ringIDs, "ring", o.seed+1),
		minRingEvents, ringChunk, time.Duration(ringShare*window), tr)
	if err != nil {
		return err
	}
	r.layer("core.ring.recompute_ms", float64(tr.spans[len(tr.spans)-1].dur())/1e6)
	treeRun, err := churnPhase(r, fresh.tree, newSplicer(fresh.tree, fresh.treeIDs, "tree", o.seed),
		minTreeEvents, treeChunk, time.Duration(treeShare*window), tr)
	if err != nil {
		return err
	}
	r.layer("core.tree.recompute_ms", float64(tr.spans[len(tr.spans)-1].dur())/1e6)
	tr.end(root)
	churnLayers(r, "tree", treeRun, true)
	churnLayers(r, "ring", ringRun, false)

	// The headline operation is the static labeling; the churn streams'
	// overhead shows in their rates.
	fmt.Fprintf(o.log, "traced churn: tree %.4g events/s (untraced %.4g), ring %.4g events/s (untraced %.4g)\n",
		treeRun.perSec(), untracedTree, ringRun.perSec(), untracedRing)
	finishTrace(r, tr, root, median(labelMs), untracedLabelMs)
	return nil
}

// churnLayers reports a churn stream's per-event partition counters.
func churnLayers(r *report, family string, run *churnRun, split bool) {
	var sig, relabeled, touched, merges, rebuilds float64
	var mergeMs, plainMs []float64
	for i, st := range run.stats {
		sig += float64(st.SigComputes)
		relabeled += float64(st.Relabeled)
		touched += float64(st.TouchedClasses)
		if st.MergePass {
			merges++
			mergeMs = append(mergeMs, run.latMs[i])
		} else {
			plainMs = append(plainMs, run.latMs[i])
		}
		if st.Rebuild {
			rebuilds++
		}
	}
	n := float64(len(run.stats))
	p := "partition." + family + "."
	r.layer(p+"sig_computes_per_event", sig/n)
	r.layer(p+"relabeled_per_event", relabeled/n)
	r.layer(p+"touched_classes_per_event", touched/n)
	r.layer(p+"merge_pass_share", merges/n)
	r.layer(p+"rebuilds", rebuilds)
	if split {
		r.layer(p+"merge_event_ms_p50", median(mergeMs))
		r.layer(p+"nomerge_event_ms_p50", median(plainMs))
	}
}

// splicer generates shape-preserving churn on a ring or a tree from a
// seeded stream, half splices and half undos. A ring splice inserts a
// fresh processor and variable into a uniformly chosen edge; a tree
// splice hangs a fresh leaf under a uniformly chosen node. An undo pops
// the most recent splice, which is always still intact, so every event
// is valid and the system never leaves its family.
type splicer struct {
	d      *core.DynSystem
	family string
	rng    *rand.Rand
	pool   []string // live processor ids; spliced ones form the tail
	stack  []splice
	seq    int
}

type splice struct {
	p, px, vb string // template processor, spliced processor, p's old right variable
}

func newSplicer(d *core.DynSystem, ids []string, family string, seed int64) *splicer {
	return &splicer{d: d, family: family, rng: rand.New(rand.NewSource(seed)),
		pool: append([]string(nil), ids...)}
}

func (s *splicer) step() error {
	if len(s.stack) > 0 && s.rng.Intn(2) == 1 {
		return s.undo()
	}
	return s.splice()
}

func (s *splicer) splice() error {
	p := s.pool[s.rng.Intn(len(s.pool))]
	bind, err := s.d.Bindings(p)
	if err != nil {
		return err
	}
	s.seq++
	vx, px := fmt.Sprintf("xv%d", s.seq), fmt.Sprintf("xp%d", s.seq)
	if s.family == "ring" {
		// p --right--> vb becomes p --right--> vx <--left-- px --right--> vb.
		vb := bind[1]
		_, err = s.d.Apply(
			core.Mutation{Op: core.OpAddVar, Var: vx, Init: "0"},
			core.Mutation{Op: core.OpAddProc, Proc: px, Init: "0", Bind: []string{vx, vb}},
			core.Mutation{Op: core.OpRewire, Proc: p, Name: "right", Var: vx},
		)
		s.stack = append(s.stack, splice{p: p, px: px, vb: vb})
	} else {
		// px hangs under p: its up variable is p's own, its own is vx.
		_, err = s.d.Apply(
			core.Mutation{Op: core.OpAddVar, Var: vx, Init: "0"},
			core.Mutation{Op: core.OpAddProc, Proc: px, Init: "0", Bind: []string{bind[1], vx}},
		)
		s.stack = append(s.stack, splice{p: p, px: px})
	}
	if err != nil {
		return err
	}
	s.pool = append(s.pool, px)
	return nil
}

func (s *splicer) undo() error {
	top := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	s.pool = s.pool[:len(s.pool)-1]
	if s.family == "ring" {
		// Removing px orphans its fresh variable, which cascades away.
		_, err := s.d.Apply(
			core.Mutation{Op: core.OpRewire, Proc: top.p, Name: "right", Var: top.vb},
			core.Mutation{Op: core.OpRemoveProc, Proc: top.px},
		)
		return err
	}
	_, err := s.d.Apply(core.Mutation{Op: core.OpRemoveProc, Proc: top.px})
	return err
}
