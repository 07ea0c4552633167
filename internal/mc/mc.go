// Package mc is an explicit-state model checker over schedule
// nondeterminism: it explores every reachable machine state under every
// finite schedule (breadth-first, deduplicated by canonical state
// fingerprints) and checks safety predicates.
//
// Safety over all finite schedules is exactly the right notion for the
// paper's selection problem: every finite step sequence is a prefix of
// some fair schedule, so Uniqueness and Stability under fair (or
// bounded-fair) schedules hold iff no reachable state violates them. The
// checker additionally finds stuck terminal components — sets of states
// (deadlocks or spin livelocks) that, once entered, can never be left and
// never reach a good state — which is how dining-philosopher deadlocks
// are detected. Violating schedules are reconstructed; Theorem 1's
// adversary (the FLP construction) falls out as a reachability witness.
//
// The engine is built for scale and observability:
//
//   - The visited set is a compact hashed index over binary state keys
//     (stateIndex, mirroring partition.SigTable) rather than a map of
//     canonical strings, backed by machine.AppendStateKey's cheap binary
//     fingerprint path.
//   - Opt-in symmetry reduction (Options.SymmetryReduce) dedups states
//     modulo the system's automorphism group — the orbit-quotient
//     construction the paper's symmetry results suggest.
//   - One level driver (level.go) works through each BFS level in
//     bounded windows: expansion fans out over Options.Workers
//     goroutines, the index splits into as many hash-routed shards that
//     stage new keys in parallel, and a single commit pass in canonical
//     order keeps verdicts, witnesses and stats identical at any worker
//     count.
//   - Stats (states/sec, depth, dedup hits, memory estimate, group
//     order) are surfaced through Result and a progress callback, and
//     time/memory/state budgets can degrade gracefully into a partial
//     Result instead of an error.
package mc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"time"
	"unsafe"

	"simsym/internal/autgrp"
	"simsym/internal/machine"
	"simsym/internal/obs"
	"simsym/internal/system"
)

// Sentinel errors.
var (
	ErrBudget = errors.New("mc: budget exhausted before closure")
)

// StatePredicate inspects a state; a non-empty return is a violation
// description.
type StatePredicate func(m *machine.Machine) string

// TransitionPredicate inspects a transition (before --proc--> after); a
// non-empty return is a violation description. Transition predicates see
// every scheduled step, including stutter steps whose target state equals
// the source (self-loops are excluded only from the successor graph).
type TransitionPredicate func(before, after *machine.Machine, proc int) string

// Options configures a check.
type Options struct {
	// MaxStates bounds exploration; 0 means the default (200_000). The
	// checker explores at most MaxStates distinct states: exhausting the
	// budget yields a partial Result carrying exactly MaxStates states.
	MaxStates int
	// MaxDuration bounds wall-clock exploration time; 0 means unbounded.
	MaxDuration time.Duration
	// MaxMemBytes bounds the checker's estimated memory footprint
	// (visited index plus exploration bookkeeping); 0 means unbounded.
	MaxMemBytes int64
	// Partial turns budget exhaustion (states, time, or memory) into a
	// graceful partial Result — Complete=false, Exhausted naming the
	// spent budget, nil error — instead of ErrBudget. Absence of a
	// violation in a partial result is bounded evidence, not proof.
	Partial bool
	// SymmetryReduce dedups states modulo the automorphism group of the
	// system (computed via autgrp): each newly discovered state is
	// canonicalized to the lexicographically least key over its orbit, so
	// only one representative per orbit is explored. Sound when every
	// predicate is invariant under the group — true for the shipped
	// predicates (Uniqueness, Stability, stuck/halt/eating predicates),
	// which quantify over all processors. Witness schedules remain
	// genuine: stored states are reachable states, not permuted images.
	SymmetryReduce bool
	// AutLimit bounds automorphism enumeration for SymmetryReduce;
	// 0 means the autgrp default.
	AutLimit int
	// Workers > 1 expands each BFS level over that many goroutines and
	// splits the visited index into as many hash-routed shards (rounded
	// up to a power of two, capped at 256), each staged by one goroutine
	// without locks or cross-shard reads. Successors are committed in
	// canonical frontier order, so verdicts, witness schedules, state
	// counts, and stats are label-for-label identical at any worker
	// count; predicates are only ever called from the committing
	// goroutine.
	Workers int
	// HotIndexBytes > 0 caps the visited index's in-memory key arenas:
	// when the hot tier outgrows the cap, cold arena chunks spill FIFO to
	// per-shard temp files under SpillDir at level boundaries and are
	// read back transparently on dedup probes against deep history. The
	// cap governs only key storage; bucket tables and node bookkeeping
	// stay resident (MaxMemBytes still bounds the estimated total, which
	// excludes spilled bytes).
	HotIndexBytes int64
	// SpillDir is the parent directory for spill files (os.TempDir()
	// when empty); the spill tier is removed when the check returns.
	SpillDir string
	// Progress, when non-nil, receives a Stats snapshot roughly every
	// ProgressEvery explored states and once when the check finishes.
	Progress func(Stats)
	// ProgressEvery is the state interval between Progress callbacks;
	// 0 means the default (16384).
	ProgressEvery int
	// Obs, when non-nil, receives structured events and metrics: an
	// mc.check phase, one KindStateExpansion event per completed BFS
	// level, counters mirroring Stats, and the final verdict. Events are
	// deterministic (no wall-clock payloads); durations go to the
	// mc.check histogram only. A nil recorder costs one pointer check.
	Obs *obs.Recorder
	// Ctx, when non-nil, cancels exploration: cancellation is treated as
	// an exhausted budget (Exhausted="canceled"), degrading into a
	// partial Result under Options.Partial like any other budget.
	Ctx context.Context
	// States are violations when any StatePredicate flags them.
	StatePreds []StatePredicate
	// Transitions are violations when any TransitionPredicate flags them.
	TransPreds []TransitionPredicate
	// StuckBad, when non-nil, is evaluated on every state; after the
	// state space closes, a terminal strongly-connected component all of
	// whose states are flagged is reported as a violation. This catches
	// both quiescent deadlocks and busy-waiting livelocks: once inside
	// such a component, no schedule can ever reach an unflagged state.
	StuckBad StatePredicate
}

// DefaultMaxStates is the default exploration budget.
const DefaultMaxStates = 200_000

// DefaultProgressEvery is the default Progress callback interval.
const DefaultProgressEvery = 16384

// Violation describes a found counterexample.
type Violation struct {
	// Reason is the predicate's description.
	Reason string
	// Schedule is a step sequence from the initial state reaching the
	// violating state (for transition violations, the final step is the
	// violating one).
	Schedule []int
}

// Stats is the checker's observability surface, exposed through Result
// and the Progress callback.
type Stats struct {
	// StatesExplored counts distinct states visited (orbit
	// representatives under symmetry reduction).
	StatesExplored int
	// Transitions counts examined non-stutter transitions, including
	// those into already-visited states.
	Transitions int64
	// DedupHits counts transitions into already-visited states.
	DedupHits int64
	// SelfLoops counts stutter steps (successor state equals source),
	// which are excluded from the successor graph.
	SelfLoops int64
	// Depth is the BFS depth reached (number of frontier levels begun).
	Depth int
	// PeakFrontier is the widest BFS level.
	PeakFrontier int
	// PeakMemBytes estimates the peak memory held by the visited index
	// and exploration bookkeeping (machines pending expansion excluded).
	PeakMemBytes int64
	// GroupOrder is the automorphism count used for symmetry reduction
	// (1 when reduction is off or the group is trivial).
	GroupOrder int
	// Shards is the visited-index shard count in effect: Workers rounded
	// up to a power of two, capped at 256 (1 for a sequential check).
	Shards int
	// DeltaStates counts visited states whose key is stored as a delta
	// against a BFS ancestor's key rather than in full.
	DeltaStates int64
	// StoredKeyBytes and LogicalKeyBytes measure delta compression:
	// key bytes as stored versus what full keys would have occupied.
	StoredKeyBytes  int64
	LogicalKeyBytes int64
	// SpilledBytes counts visited-index bytes resident on disk (their
	// peak; spilled bytes are excluded from PeakMemBytes).
	SpilledBytes int64
	// Elapsed is the wall-clock time spent exploring so far.
	Elapsed time.Duration
	// StatesPerSec is StatesExplored / Elapsed.
	StatesPerSec float64
}

// Result summarizes a check.
type Result struct {
	// StatesExplored counts distinct states visited.
	StatesExplored int
	// Complete is true when the reachable state space was exhausted
	// within budget, making the absence of violations a proof.
	Complete bool
	// Exhausted names the budget that ended an incomplete exploration:
	// "states", "time", "memory", or "canceled"; empty otherwise.
	Exhausted string
	// Violation is nil if no predicate fired.
	Violation *Violation
	// Stats carries the engine's observability counters.
	Stats Stats
}

// node is interned exploration bookkeeping. It holds no pointers, so
// the nodes table is never scanned by the garbage collector: successor
// edges live in the checker's succArena at [succOff, succOff+succN), and
// the stuck reason is an index into the checker's interned reason table.
type node struct {
	parent  int   // index of parent node; -1 for root
	succOff int   // offset of the node's first successor in succArena
	step    int32 // processor stepped to reach this state
	succN   int32 // number of successor edges
	stuck   int32 // index into stuckReasons; 0 = not flagged
}

// succSpan locates one successor's key inside a batch arena, along with
// the key's hash (computed during expansion, off the commit path). The
// key at [start, end) is what the index dedups on; raw is where the
// successor's unpermuted key of the same length starts, the bytes a kept
// successor is primed from. Without symmetry reduction the two are one
// span (raw == start).
type succSpan struct {
	start, end, raw int
	hash            uint64
	selfLoop        bool
}

// batch is the per-state expansion output: successor machines plus their
// canonical keys packed into a reusable arena. Batches are reused across
// windows and levels so steady-state expansion does not allocate per state.
//
// pool holds the W sibling clones expand steps in lockstep: CloneInto
// overwrites a slot with an O(1) snapshot of the parent (no heap machine
// per child), and only children the commit pass decides to keep are
// detached onto the heap. succs[p] points into pool — those pointers
// die when a later window's expansion overwrites the slots.
type batch struct {
	m       *machine.Machine
	pool    []machine.Machine
	arena   []byte
	spans   []succSpan
	succs   []*machine.Machine
	err     error
	scratch [3][]byte
}

type checker struct {
	opts          Options
	nProcs        int
	maxStates     int
	progressEvery int
	deadline      time.Time
	start         time.Time
	perms         []system.Permutation // non-identity automorphisms
	idx           *stateIndex
	nodes         table[node]
	level         []*machine.Machine
	levelIdx      []int
	next          []*machine.Machine
	nextIdx       []int
	res           *Result
	stats         *Stats
	sinceProgress int
	batches       []batch

	// Level-pipeline bookkeeping (see level.go): per-frontier-state delta
	// ancestors resolved before expansion, per-successor staging
	// outcomes, and the stable arena spilled ancestor keys are read into.
	ancLocs  []keyLoc
	ancKeys  [][]byte
	ancArena []byte
	outcomes []int64

	// succArena holds every node's successor edges. A node's successors
	// are committed contiguously (the commit pass walks (frontier index,
	// processor) in canonical order, one node at a time), so each node
	// records only the offset and count of its window. A window never
	// straddles a chunk: appendSucc reserves nProcs slots — every node's
	// bound — before a node's first edge, so a window reads as one slice.
	succArena table[int]

	// stuckReasons interns the StuckBad reasons nodes refer to by index;
	// entry 0 is "" (not flagged).
	stuckReasons []string
	stuckIndex   map[string]int32

	// machSlab carves storage for kept machines (DetachTo) in chunks, one
	// allocation per chunk instead of one per adopted state. Chunks
	// rotate through three generations (handed out this level, previous
	// level, reusable) in lockstep with cowSlab — see recycleKept.
	machSlab []machine.Machine
	machCur  [][]machine.Machine
	machPrev [][]machine.Machine
	machFree [][]machine.Machine

	// cowSlab backs the arrays and fingerprint arenas kept machines take
	// while being primed — adopt runs only on the sequential commit pass,
	// so one slab serves every worker count without synchronization.
	cowSlab machine.Slab
}

// newKept hands out one machine's worth of slab storage.
func (c *checker) newKept() *machine.Machine {
	if len(c.machSlab) == 0 {
		if k := len(c.machFree); k > 0 {
			c.machSlab = c.machFree[k-1]
			c.machFree[k-1] = nil
			c.machFree = c.machFree[:k-1]
		} else {
			c.machSlab = make([]machine.Machine, 128)
		}
		c.machCur = append(c.machCur, c.machSlab)
	}
	m := &c.machSlab[0]
	c.machSlab = c.machSlab[1:]
	return m
}

// recycleKept advances the machine-struct chunk generations at a level
// boundary: everything handed out while expanding the level before last
// is dead (kept machines die when their own level finishes expanding),
// so those chunks become reusable. Reuse overwrites each struct wholly
// via DetachTo, so freed chunks are not cleared.
func (c *checker) recycleKept() {
	c.machFree = append(c.machFree, c.machPrev...)
	c.machPrev, c.machCur = c.machCur, c.machPrev[:0]
	c.machSlab = nil // a partial chunk must not span generations
}

// appendSucc records id as curIdx's next successor. Relies on the
// commit-order invariant above: a node's window is always the arena
// tail while it is being appended to.
func (c *checker) appendSucc(curIdx, id int) {
	nd := c.nodes.at(curIdx)
	if nd.succN == 0 {
		c.succArena.reserve(c.nProcs)
		nd.succOff = c.succArena.len()
	}
	c.succArena.push(id)
	nd.succN++
}

// internStuck returns reason's index in the stuck-reason table, adding
// it on first sight. Predicates usually return one constant reason, so
// the newest entry is checked before the map.
func (c *checker) internStuck(reason string) int32 {
	if reason == "" {
		return 0
	}
	if n := len(c.stuckReasons); n > 1 && c.stuckReasons[n-1] == reason {
		return int32(n - 1)
	}
	i, ok := c.stuckIndex[reason]
	if !ok {
		if c.stuckIndex == nil {
			c.stuckIndex = make(map[string]int32)
			c.stuckReasons = []string{""}
		}
		i = int32(len(c.stuckReasons))
		c.stuckReasons = append(c.stuckReasons, reason)
		c.stuckIndex[reason] = i
	}
	return i
}

// Check explores all schedules of the machine produced by factory().
// The factory must return a fresh machine in its initial state on every
// call (Check calls it once).
//
// On budget exhaustion Check returns the partial Result alongside
// ErrBudget (or with a nil error when Options.Partial is set); on
// machine execution errors the Result is nil.
func Check(factory func() (*machine.Machine, error), opts Options) (*Result, error) {
	_, res, err := check(factory, opts)
	return res, err
}

// check is Check, also returning the checker so tests can inspect its
// exploration graph (nil when the factory or symmetry setup fails).
func check(factory func() (*machine.Machine, error), opts Options) (*checker, *Result, error) {
	m0, err := factory()
	if err != nil {
		return nil, nil, fmt.Errorf("mc: %w", err)
	}
	c := &checker{
		opts:          opts,
		nProcs:        m0.System().NumProcs(),
		maxStates:     opts.MaxStates,
		progressEvery: opts.ProgressEvery,
		start:         time.Now(),
		res:           &Result{},
		idx:           newStateIndex(opts.Workers, opts.HotIndexBytes, opts.SpillDir),
	}
	defer c.idx.release()
	// A successor window holds up to nProcs edges and must fit a chunk.
	c.succArena.shift = max(tableShift, uint(bits.Len(uint(c.nProcs))))
	c.stats = &c.res.Stats
	c.stats.GroupOrder = 1
	if c.maxStates <= 0 {
		c.maxStates = DefaultMaxStates
	}
	if c.progressEvery <= 0 {
		c.progressEvery = DefaultProgressEvery
	}
	if opts.MaxDuration > 0 {
		c.deadline = c.start.Add(opts.MaxDuration)
	}
	if opts.SymmetryReduce {
		auts, err := autgrp.Automorphisms(m0.System(), autgrp.Options{Limit: opts.AutLimit})
		if err != nil {
			return nil, nil, fmt.Errorf("mc: symmetry: %w", err)
		}
		c.stats.GroupOrder = len(auts)
		for _, a := range auts {
			if !isIdentity(a) {
				c.perms = append(c.perms, a)
			}
		}
	}

	// Root. The initial state is fixed by every automorphism (they
	// preserve initial values), but canonicalize anyway for uniformity.
	// The root is primed from its own unpermuted key.
	opts.Obs.PhaseStart("mc.check")
	rawKey := m0.AppendStateKey(nil, nil, nil)
	rootKey := rawKey
	if len(c.perms) > 0 {
		var b batch
		b.scratch[1] = slices.Clone(rawKey)
		rootKey = c.minimizeKey(m0, &b)
	}
	c.idx.insert(rootKey, hashKey(rootKey), keyLoc{}, nil)
	rootIdx := c.adopt(m0, rawKey, -1, -1)
	if v := c.checkState(m0, rootIdx); v != nil {
		c.res.Violation = v
		return c.finish(nil)
	}

	c.level, c.levelIdx = c.next, c.nextIdx
	c.next, c.nextIdx = nil, nil
	for len(c.level) > 0 {
		c.stats.Depth++
		if len(c.level) > c.stats.PeakFrontier {
			c.stats.PeakFrontier = len(c.level)
		}
		if done, err := c.runLevel(); done {
			return c.finish(err)
		}
		if opts.Obs.Enabled() {
			opts.Obs.StateExpansion("mc", c.res.StatesExplored, c.stats.Depth, c.stats.Transitions)
		}
		// The level boundary is the one point where no staging goroutine
		// can hold hot-chunk slices, so it is the safe place to migrate
		// cold index chunks to disk.
		freed, serr := c.idx.maybeSpill()
		if serr != nil {
			// A failed spill (disk full, unwritable dir) ends exploration,
			// but everything explored so far is intact in memory — degrade
			// to a partial result when the caller opted in, exactly like a
			// budget exhaustion.
			c.res.Complete = false
			c.res.Exhausted = "spill"
			if c.opts.Partial {
				return c.finish(nil)
			}
			return c.finish(serr)
		}
		if freed > 0 && opts.Obs.Enabled() {
			opts.Obs.Spill("mc", freed, c.idx.spilledBytes, c.idx.spillFlushes)
		}
		c.level, c.next = c.next, c.level[:0]
		c.levelIdx, c.nextIdx = c.nextIdx, c.levelIdx[:0]
		// Every machine of the just-expanded level is dead (the commit
		// pass nils the level slots as it finishes them), so the slab
		// generations advance: chunks retired two boundaries ago are
		// reused for the machines the next level will keep.
		c.recycleKept()
		c.cowSlab.Recycle()
	}
	c.res.Complete = true

	if c.opts.StuckBad != nil {
		if idx, reason := findStuckComponent(&c.nodes, &c.succArena); idx >= 0 {
			c.res.Violation = &Violation{
				Reason:   "stuck: " + c.stuckReasons[reason],
				Schedule: c.scheduleTo(idx),
			}
		}
	}
	return c.finish(nil)
}

// finish finalizes stats, emits the last progress snapshot, and mirrors
// the exploration counters into the Result.
func (c *checker) finish(err error) (*checker, *Result, error) {
	c.stats.StatesExplored = c.res.StatesExplored
	c.stats.Elapsed = time.Since(c.start)
	if secs := c.stats.Elapsed.Seconds(); secs > 0 {
		c.stats.StatesPerSec = float64(c.res.StatesExplored) / secs
	}
	if mem := c.memEstimate(); mem > c.stats.PeakMemBytes {
		c.stats.PeakMemBytes = mem
	}
	snap := c.idx.statsSnapshot()
	c.stats.Shards = snap.shards
	c.stats.DeltaStates = snap.deltaStates
	c.stats.StoredKeyBytes = snap.storedBytes
	c.stats.LogicalKeyBytes = snap.logicalBytes
	c.stats.SpilledBytes = snap.spilledBytes
	if c.opts.Progress != nil {
		c.opts.Progress(*c.stats)
	}
	if rec := c.opts.Obs; rec.Enabled() {
		rec.Count("mc.checks", 1)
		rec.Count("mc.states", int64(c.res.StatesExplored))
		rec.Count("mc.transitions", c.stats.Transitions)
		rec.Count("mc.dedup_hits", c.stats.DedupHits)
		rec.Count("mc.self_loops", c.stats.SelfLoops)
		rec.Count("mc.delta_states", snap.deltaStates)
		rec.Count("mc.stored_key_bytes", snap.storedBytes)
		rec.Count("mc.logical_key_bytes", snap.logicalBytes)
		rec.Count("mc.spilled_bytes", snap.spilledBytes)
		rec.Stat("mc.depth", int64(c.stats.Depth))
		rec.Stat("mc.peak_frontier", int64(c.stats.PeakFrontier))
		rec.Observe("mc.check", c.stats.Elapsed)
		detail := "state space closed"
		switch {
		case c.res.Violation != nil:
			detail = c.res.Violation.Reason
		case c.res.Exhausted != "":
			detail = "budget exhausted: " + c.res.Exhausted
		}
		rec.Verdict("mc.check", c.res.Violation == nil, detail)
		rec.PhaseEnd("mc.check", int64(c.res.StatesExplored))
	}
	return c, c.res, err
}

// expand computes all successors of cur into b: cloned machines plus
// their canonical binary keys. Pure with respect to checker state except
// for b, so level expansion parallelizes; predicates never run here.
//
// This is the batch-stepping hot loop: cur was primed when it was
// adopted (every fingerprint window valid in its private arena), so its
// own key is a pure window copy, and each sibling clone stepped out of
// the pool re-encodes only the ≤1 frame and ≤2 variables its step
// touched — every other component is copied straight out of the
// parent's frozen arena.
func (c *checker) expand(cur *machine.Machine, b *batch) {
	b.err = nil
	b.arena = b.arena[:0]
	b.spans = b.spans[:0]
	b.succs = b.succs[:0]
	if len(b.pool) < c.nProcs {
		b.pool = make([]machine.Machine, c.nProcs)
		b.spans = make([]succSpan, 0, c.nProcs)
		b.succs = make([]*machine.Machine, 0, c.nProcs)
	}
	curKey := cur.AppendStateKey(b.scratch[0][:0], nil, nil)
	b.scratch[0] = curKey
	// Room for every child key at about the parent's size, so a fresh
	// batch's arena grows once rather than once per doubling.
	b.arena = slices.Grow(b.arena, c.nProcs*(len(curKey)+len(curKey)/4))
	for p := 0; p < c.nProcs; p++ {
		next := &b.pool[p]
		cur.CloneInto(next)
		if err := next.Step(p); err != nil {
			b.err = fmt.Errorf("mc: stepping %d: %w", p, err)
			return
		}
		// Encode the raw key straight into the batch arena.
		raw := len(b.arena)
		b.arena = next.AppendStateKey(b.arena, nil, nil)
		start := raw
		var hash uint64
		selfLoop := bytes.Equal(b.arena[raw:], curKey)
		if !selfLoop {
			if len(c.perms) > 0 {
				// Symmetry mode dedups on the least key over the raw key's
				// orbit; the raw key stays in the arena to prime the
				// successor if it is kept.
				b.scratch[1] = append(b.scratch[1][:0], b.arena[raw:]...)
				key := c.minimizeKey(next, b)
				start = len(b.arena)
				b.arena = append(b.arena, key...)
			}
			hash = hashKey(b.arena[start:])
		}
		b.spans = append(b.spans, succSpan{start: start, end: len(b.arena), raw: raw, hash: hash, selfLoop: selfLoop})
		b.succs = append(b.succs, next)
	}
}

// minimizeKey returns the lexicographically least state key of m over
// the automorphism group — the orbit-canonical representative key. The
// raw key is already in b.scratch[1].
func (c *checker) minimizeKey(m *machine.Machine, b *batch) []byte {
	best := b.scratch[1]
	cand := b.scratch[2]
	for _, perm := range c.perms {
		cand = m.AppendStateKey(cand[:0], perm.ProcPerm, perm.VarPerm)
		if bytes.Compare(cand, best) < 0 {
			best, cand = cand, best
		}
	}
	b.scratch[1], b.scratch[2] = best, cand
	return best
}

// adopt appends the exploration bookkeeping for a state that was just
// committed to the index: its node, frontier slot, stuck flag, and the
// explored-state counters. The node index always equals the committed
// gid minus baseID because ids are dense and assigned in commit order.
//
// Priming here — once per kept state, never per candidate — rebases the
// machine onto a private fingerprint arena with every window valid, so
// the next level's expansion reads it (and its own children read the
// frozen arena) without encoding anything that didn't change. The arena
// is a copy of rawKey, the machine's unpermuted key, which expansion has
// already written into the batch arena (the root passes its own), so
// nothing is encoded twice.
func (c *checker) adopt(m *machine.Machine, rawKey []byte, parent, step int) int {
	m.SetSlab(&c.cowSlab)
	m.PrimeFromKey(rawKey)
	var stuck int32
	if c.opts.StuckBad != nil {
		stuck = c.internStuck(c.opts.StuckBad(m))
	}
	id := c.nodes.push(node{parent: parent, step: int32(step), stuck: stuck})
	c.next = append(c.next, m)
	c.nextIdx = append(c.nextIdx, id)
	c.res.StatesExplored++
	c.sinceProgress++
	return id
}

// pollBudgets emits progress snapshots and enforces the time and memory
// budgets. Called after each new state.
func (c *checker) pollBudgets() (bool, error) {
	if c.sinceProgress >= c.progressEvery {
		c.sinceProgress = 0
		if mem := c.memEstimate(); mem > c.stats.PeakMemBytes {
			c.stats.PeakMemBytes = mem
		}
		if c.opts.Progress != nil {
			c.stats.StatesExplored = c.res.StatesExplored
			c.stats.Elapsed = time.Since(c.start)
			if secs := c.stats.Elapsed.Seconds(); secs > 0 {
				c.stats.StatesPerSec = float64(c.res.StatesExplored) / secs
			}
			c.opts.Progress(*c.stats)
		}
	}
	if c.opts.MaxMemBytes > 0 {
		if mem := c.memEstimate(); mem > c.opts.MaxMemBytes {
			if mem > c.stats.PeakMemBytes {
				c.stats.PeakMemBytes = mem
			}
			return true, c.exhaust("memory")
		}
	}
	if c.res.StatesExplored%64 == 0 {
		if !c.deadline.IsZero() && time.Now().After(c.deadline) {
			return true, c.exhaust("time")
		}
		if c.opts.Ctx != nil && c.opts.Ctx.Err() != nil {
			return true, c.exhaust("canceled")
		}
	}
	return false, nil
}

// memEstimate approximates the checker's resident footprint: the visited
// index plus per-node bookkeeping and successor edges. Capacities, not
// lengths: the node and edge tables' allocated chunks are real memory
// whether or not they are full yet.
func (c *checker) memEstimate() int64 {
	return c.idx.memBytes() + c.nodes.capBytes(int64(unsafe.Sizeof(node{}))) +
		c.succArena.capBytes(int64(unsafe.Sizeof(int(0))))
}

// exhaust records which budget ended the run; with Options.Partial the
// partial Result is returned without error.
func (c *checker) exhaust(kind string) error {
	c.res.Exhausted = kind
	c.res.Complete = false
	if c.opts.Partial {
		return nil
	}
	return fmt.Errorf("%w (%s): %d states", ErrBudget, kind, c.res.StatesExplored)
}

func (c *checker) scheduleTo(idx int) []int {
	var rev []int
	for idx >= 0 && c.nodes.at(idx).parent >= 0 {
		nd := c.nodes.at(idx)
		rev = append(rev, int(nd.step))
		idx = nd.parent
	}
	out := make([]int, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

func (c *checker) checkState(m *machine.Machine, idx int) *Violation {
	for _, pred := range c.opts.StatePreds {
		if reason := pred(m); reason != "" {
			return &Violation{Reason: reason, Schedule: c.scheduleTo(idx)}
		}
	}
	return nil
}

// isIdentity reports whether perm maps every node to itself.
func isIdentity(perm system.Permutation) bool {
	for i, v := range perm.ProcPerm {
		if v != i {
			return false
		}
	}
	for i, v := range perm.VarPerm {
		if v != i {
			return false
		}
	}
	return true
}

// findStuckComponent runs Tarjan's SCC algorithm (iteratively) and
// returns a representative node of the first terminal SCC whose states
// are all flagged stuck, with the stuck-reason index of its first
// flagged member, or (-1, 0). Node v's edges are the succs window of
// nodes[v].succN edges at nodes[v].succOff. Under symmetry reduction
// the graph is the orbit quotient; a terminal all-bad component there
// corresponds to one in the full graph because the stuck predicate is
// automorphism-invariant.
func findStuckComponent(nodes *table[node], succs *table[int]) (int, int32) {
	n := nodes.len()
	// state[v] is -1 until v is visited, v's DFS number while v is on
	// the Tarjan stack, and -2-c once v belongs to component c. A
	// visited node stays on the stack exactly until its component is
	// popped, so this one table stands in for the DFS numbers, the
	// on-stack flags and the component ids.
	const unvisited = -1
	state := make([]int, n)
	low := make([]int, n)
	for i := range state {
		state[i] = unvisited
	}
	var stack []int
	counter := 0
	nComps := 0

	// A frame holds the edges of v not yet visited: its successor
	// window, one slice because windows never straddle a chunk.
	type frame struct {
		v     int
		edges []int
	}
	enter := func(v int) frame {
		state[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		nd := nodes.at(v)
		return frame{v: v, edges: succs.window(nd.succOff, int(nd.succN))}
	}
	for start := 0; start < n; start++ {
		if state[start] != unvisited {
			continue
		}
		callStack := []frame{enter(start)}
		for len(callStack) > 0 {
			fr := &callStack[len(callStack)-1]
			v := fr.v
			if len(fr.edges) > 0 {
				w := fr.edges[0]
				fr.edges = fr.edges[1:]
				if sw := state[w]; sw == unvisited {
					callStack = append(callStack, enter(w))
				} else if sw >= 0 && sw < low[v] { // w is on the stack
					low[v] = sw
				}
				continue
			}
			// Post-visit.
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				parent := callStack[len(callStack)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == state[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					state[w] = -2 - nComps
					if w == v {
						break
					}
				}
				nComps++
			}
		}
	}

	// A component is terminal when no edge leaves it; it is stuck-bad
	// when every member is flagged.
	terminal := make([]bool, nComps)
	allBad := make([]bool, nComps)
	reason := make([]int32, nComps)
	repr := make([]int, nComps)
	for c := range terminal {
		terminal[c] = true
		allBad[c] = true
		repr[c] = -1
	}
	for v := 0; v < n; v++ {
		c := -2 - state[v]
		if repr[c] == -1 {
			repr[c] = v
		}
		nd := nodes.at(v)
		if nd.stuck == 0 {
			allBad[c] = false
		} else if reason[c] == 0 {
			reason[c] = nd.stuck
		}
		for _, w := range succs.window(nd.succOff, int(nd.succN)) {
			if -2-state[w] != c {
				terminal[c] = false
			}
		}
	}
	for c := 0; c < nComps; c++ {
		if terminal[c] && allBad[c] {
			return repr[c], reason[c]
		}
	}
	return -1, 0
}

// UniquenessPred flags states with two or more selected processors — the
// selection problem's Uniqueness requirement.
func UniquenessPred(m *machine.Machine) string {
	if sel := m.SelectedProcs(); len(sel) >= 2 {
		return fmt.Sprintf("uniqueness violated: processors %v all selected", sel)
	}
	return ""
}

// StabilityPred flags transitions where a selected processor becomes
// unselected — the selection problem's Stability requirement.
func StabilityPred(before, after *machine.Machine, _ int) string {
	selBefore := before.SelectedProcs()
	selAfterSet := make(map[int]bool)
	for _, p := range after.SelectedProcs() {
		selAfterSet[p] = true
	}
	for _, p := range selBefore {
		if !selAfterSet[p] {
			return fmt.Sprintf("stability violated: processor %d unselected", p)
		}
	}
	return ""
}

// NotAllHalted is a StuckBad predicate: a terminal component whose states
// still have running processors is a deadlock or livelock.
func NotAllHalted(m *machine.Machine) string {
	if !m.AllHalted() {
		return "processors can never all halt"
	}
	return ""
}

// NoneSelectedAndAllHalted flags states where every processor halted
// without anyone selected — a selection algorithm that gave up.
func NoneSelectedAndAllHalted(m *machine.Machine) string {
	if m.AllHalted() && len(m.SelectedProcs()) == 0 {
		return "all processors halted with no selection"
	}
	return ""
}
