package mc

import (
	"bytes"
	"sync"

	"simsym/internal/machine"
)

// The level pipeline — the checker's one level driver.
//
// Each BFS level is worked through in windows of windowPerWorker×Workers
// frontier states, so the successors held in memory at once stay bounded
// however wide the level grows. Each window runs four steps:
//
//  1. Resolve (coordinator): look up each frontier state's delta
//     ancestor — keyframe location plus full key bytes — so the steps
//     below never read another shard or the spill file.
//  2. Expand: clone, step, canonicalize and hash every successor —
//     inline when Workers ≤ 1, fanned out over Workers goroutines
//     otherwise.
//  3. Stage (only when the index has more than one shard): each
//     worker owns a disjoint set of shards and scans the window's
//     spans in frontier order, handling exactly the spans whose key
//     hash routes to its shards. A span whose bucket rules it decidable
//     is resolved on the spot: staged into the shard arena
//     (delta-encoded against its parent's pre-resolved keyframe) when
//     provably new, recorded as a dedup hit when byte-equal to a
//     resident full-stored entry. Anything that would require reading
//     another shard or the spill file is deferred. Staging never takes
//     a lock and never touches non-owned state.
//  4. Commit (coordinator): walk the window's successors in canonical
//     (frontier index, processor) order, running transition/state
//     predicates, assigning dense ids to staged entries, resolving
//     deferred spans with the full index lookup, and enforcing budgets.
//     Because ids, predicate calls, counters and budget stops all
//     happen here in canonical order, every verdict, witness schedule
//     and stat is the same at any worker count: determinism comes from
//     this reduction, not from serializing the index. With one shard
//     nothing is staged and every span takes the full lookup.
//
// Soundness of step 3's deferral rule: entries are only ever appended
// to a bucket, and a bucket is stageable only while every resident entry
// is locally comparable (full-stored, hot, same shard). A deferred span
// therefore proves the bucket holds a non-comparable entry, which blocks
// every later same-bucket span from staging too — so by the time the
// commit resolves a deferred span, every uncommitted entry that could
// precede it in its bucket has already been committed, in canonical
// order.
type shardOutcome = int64

const (
	outDeferred = 0 // span needs the coordinator's full lookup
	outStaged   = 1 // span staged a new entry; low 48 bits = entry index
	outHit      = 2 // span matched a resident entry; low 48 bits = entry index
)

// windowPerWorker is the number of frontier states each worker expands
// per window: enough to amortize the per-window goroutine fan-out, few
// enough that a sequential check holds only a handful of batches.
const windowPerWorker = 8

// runLevel expands and commits the current level window by window.
func (c *checker) runLevel() (bool, error) {
	workers := max(c.opts.Workers, 1)
	size := windowPerWorker * workers
	if len(c.batches) < size {
		c.batches = make([]batch, size)
		c.ancLocs = make([]keyLoc, size)
		c.ancKeys = make([][]byte, size)
		c.outcomes = make([]shardOutcome, size*c.nProcs)
	}
	for lo := 0; lo < len(c.level); lo += size {
		if done, err := c.runWindow(lo, min(lo+size, len(c.level)), workers); done {
			return true, err
		}
	}
	return false, nil
}

// runWindow runs frontier states [lo, hi) of the current level through
// the four pipeline steps.
func (c *checker) runWindow(lo, hi, workers int) (bool, error) {
	n := hi - lo
	level := c.level[lo:hi]

	// Resolve. Hot ancestors alias arena chunks — safe during staging
	// because chunks are append-only and never move; spilled ancestors
	// are copied into a stable arena.
	ancLocs, ancKeys := c.ancLocs[:n], c.ancKeys[:n]
	c.ancArena = c.ancArena[:0]
	for i, idx := range c.levelIdx[lo:hi] {
		loc, key, err := c.idx.ancestorFor(c.idx.baseID+int64(idx), &c.ancArena)
		if err != nil {
			return true, err
		}
		ancLocs[i], ancKeys[i] = loc, key
	}

	// Expand into per-state batches.
	batches := c.batches[:n]
	if expanders := min(workers, n); expanders == 1 {
		c.expandRange(level, batches, 0, n)
	} else {
		chunk := (n + expanders - 1) / expanders
		fanOut(expanders, func(w int) {
			c.expandRange(level, batches, w*chunk, min((w+1)*chunk, n))
		})
	}

	// Stage. Outcomes land in a flat (state, proc) table; disjoint
	// indices per span owner, so no synchronization beyond the barrier.
	outcomes := c.outcomes[:n*c.nProcs]
	clear(outcomes)
	if len(c.idx.shards) > 1 {
		stagers := min(workers, len(c.idx.shards))
		fanOut(stagers, func(w int) {
			c.stagePartition(w, stagers, batches, ancLocs, ancKeys, outcomes)
		})
	}

	return c.commitLevel(lo, batches, ancLocs, ancKeys, outcomes)
}

// expandRange expands frontier states [lo, hi) of a window into their
// batches.
func (c *checker) expandRange(level []*machine.Machine, batches []batch, lo, hi int) {
	for i := lo; i < hi; i++ {
		batches[i].m = level[i]
		c.expand(level[i], &batches[i])
	}
}

// fanOut runs fn(w) on its own goroutine for every w in [0, workers) and
// waits for all of them.
func fanOut(workers int, fn func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	wg.Wait()
}

// stagePartition is one staging worker: it scans every span of the
// window in frontier order and handles those owned by its shard
// partition (shard index modulo stride).
func (c *checker) stagePartition(w, stride int, batches []batch, ancLocs []keyLoc, ancKeys [][]byte, outcomes []shardOutcome) {
	t := c.idx
	for i := range batches {
		b := &batches[i]
		if b.err != nil {
			continue // the commit pass surfaces the error
		}
		base := i * c.nProcs
		for p, sp := range b.spans {
			if sp.selfLoop {
				continue
			}
			si := t.shardOf(sp.hash)
			if si%stride != w {
				continue
			}
			sh := &t.shards[si]
			key := b.arena[sp.start:sp.end]
			out := shardOutcome(outDeferred)
			comparable := true
			bt := &sh.buckets
			if bt.slots != nil {
				for sl := sp.hash & bt.mask; bt.slots[sl].ref != 0; sl = (sl + 1) & bt.mask {
					s := bt.slots[sl]
					if s.hash != sp.hash {
						continue
					}
					ei := s.ref - 1
					e := sh.entries.at(int(ei))
					if e.ancN > 0 || e.off < sh.bound {
						// Delta-stored (ancestor may live on another shard)
						// or spilled: not locally comparable.
						comparable = false
						break
					}
					pos := int(e.off & chunkMask)
					raw := sh.chunks[e.off>>chunkShift][pos : pos+int(e.n)]
					if bytes.Equal(raw, key) {
						out = outHit<<48 | ei
						break
					}
				}
			}
			if out == outDeferred && comparable {
				out = outStaged<<48 | sh.stage(key, sp.hash, ancLocs[i], ancKeys[i])
			}
			outcomes[base+p] = out
		}
	}
}

// commitLevel is the commit step for the window starting at frontier
// index lo: the one sequential pass that folds expanded successors into
// the exploration. Transition predicates run before the self-loop skip
// (stutter steps are visible to predicates, excluded only from the
// successor graph); staged entries just need an id, hits are
// pre-verified, deferred spans take the full index lookup; the state
// budget is checked before each new state and the other budgets after.
func (c *checker) commitLevel(lo int, batches []batch, ancLocs []keyLoc, ancKeys [][]byte, outcomes []shardOutcome) (bool, error) {
	for i := range batches {
		b := &batches[i]
		if b.err != nil {
			return true, b.err
		}
		curIdx := c.levelIdx[lo+i]
		base := i * c.nProcs
		for p, sp := range b.spans {
			next := b.succs[p]
			for _, pred := range c.opts.TransPreds {
				if reason := pred(b.m, next, p); reason != "" {
					c.res.Violation = &Violation{
						Reason:   reason,
						Schedule: append(c.scheduleTo(curIdx), p),
					}
					return true, nil
				}
			}
			if sp.selfLoop {
				c.stats.SelfLoops++
				continue
			}
			c.stats.Transitions++
			key := b.arena[sp.start:sp.end]
			si := c.idx.shardOf(sp.hash)
			out := outcomes[base+p]
			var gid int64
			isNew := false
			switch out >> 48 {
			case outHit:
				gid = c.idx.shards[si].entries.at(int(out & (1<<48 - 1))).gid
			case outStaged:
				if c.res.StatesExplored >= c.maxStates {
					return true, c.exhaust("states")
				}
				gid = c.idx.commitStaged(si, out&(1<<48-1))
				isNew = true
			default:
				g, ok, err := c.idx.lookupHashed(key, sp.hash)
				if err != nil {
					return true, err
				}
				if ok {
					gid = g
				} else {
					// Budget check strictly before the insert: the checker
					// explores exactly MaxStates states, never MaxStates+1.
					if c.res.StatesExplored >= c.maxStates {
						return true, c.exhaust("states")
					}
					gid = c.idx.insert(key, sp.hash, ancLocs[i], ancKeys[i])
					isNew = true
				}
			}
			if !isNew {
				if gid < 0 {
					panic("mc: commit matched an uncommitted entry")
				}
				c.stats.DedupHits++
				c.appendSucc(curIdx, int(gid-c.idx.baseID))
				continue
			}
			// Detach the pool slot onto the heap before adoption; the
			// pool pointer must not be read past this point (the kept
			// machine now owns whatever arrays the slot owned).
			kept := next.DetachTo(c.newKept())
			id := c.adopt(kept, b.arena[sp.raw:sp.raw+len(key)], curIdx, p)
			c.appendSucc(curIdx, id)
			if v := c.checkState(kept, id); v != nil {
				c.res.Violation = v
				return true, nil
			}
			if stop, err := c.pollBudgets(); stop {
				return true, err
			}
		}
		c.level[lo+i] = nil
		b.m = nil
	}
	return false, nil
}
