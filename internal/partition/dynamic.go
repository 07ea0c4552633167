package partition

import (
	"fmt"
	"sort"
)

// DynStructure is a Structure whose node set mutates in place: slots
// may be born, die, change their initial key, or change their
// environment between calls to Dyn.Update. Len reports the slot-space
// size (dead slots included); Alive reports whether slot i currently
// exists. Signatures and Dependents must never reference dead slots.
// Structures that additionally implement TokenStructure get the
// interned token path; others fall back to string interning.
type DynStructure interface {
	Structure
	// Alive reports whether slot i is currently part of the structure.
	Alive(i int) bool
}

// UpdateStats describes the work one Dyn.Update performed. Counters are
// per event; Dyn.TotalStats accumulates them.
type UpdateStats struct {
	// Touched is the number of slots the caller reported.
	Touched int
	// TouchedClasses counts distinct classes examined during settling.
	TouchedClasses int
	// Splits counts new classes carved out of invalidated ones.
	Splits int
	// Merges counts classes absorbed by the quotient merge pass.
	Merges int
	// Relabeled counts slots whose class assignment changed.
	Relabeled int
	// SigComputes counts signature encodings performed.
	SigComputes int
	// Rounds counts settle rounds (split propagation waves).
	Rounds int
	// MergePass reports whether the quotient merge pass ran.
	MergePass bool
	// Rebuild reports whether the engine fell back to a full rebuild
	// (symmetry-destroying events where the quotient would be larger
	// than recomputing from scratch).
	Rebuild bool
	// Classes is the number of live classes after the event.
	Classes int
}

func (u UpdateStats) add(v UpdateStats) UpdateStats {
	u.Touched += v.Touched
	u.TouchedClasses += v.TouchedClasses
	u.Splits += v.Splits
	u.Merges += v.Merges
	u.Relabeled += v.Relabeled
	u.SigComputes += v.SigComputes
	u.Rounds += v.Rounds
	if v.MergePass {
		u.MergePass = true
	}
	if v.Rebuild {
		u.Rebuild = true
	}
	u.Classes = v.Classes
	return u
}

// Dyn maintains the coarsest stable partition of a mutating structure
// incrementally. Between events it keeps, per class, the interned
// signature id the class stabilized at; an event only pays for the
// slots it touches plus the dependency cone their label changes reach.
//
// Algorithm (see DESIGN.md §10 for the invariants):
//
//  1. Reconcile: touched slots are detached when dead, re-seated into
//     an existing class of their initial key when born or rekeyed (a
//     fresh singleton when none exists), and marked dirty along with
//     their dependents.
//  2. Settle: a worklist recomputes signatures for dirty slots only and
//     splits a class exactly when a member's interned signature id
//     diverges from the class's stored stable id. Split-off labels
//     propagate dirtiness through Dependents, as in FixpointWorklist.
//  3. Merge: if the event provably left the class-quotient structure
//     unchanged (no class born or freed, no stable signature or init
//     key drift), the pre-event partition was coarsest, so the
//     post-event one still is and the pass is skipped. Otherwise the
//     coarsest stable partition of the quotient (classes as nodes,
//     signatures evaluated through the composed labeling) is computed
//     and pulled back: quotient classes that coalesce are merged,
//     which is exactly — and only — where coarseness is restorable.
//
// The full-recompute drivers (FixpointNaive/FixpointWorklist) survive
// untouched as the cross-checked oracle; the differential fuzzer
// asserts relation-for-relation equality after every event.
//
// Dyn is not goroutine-safe.
type Dyn struct {
	s    DynStructure
	enc  sigEncoder // persistent id space for stable class signatures, reset only by rebuild
	qenc sigEncoder // scratch space for quotient passes, reset per round

	label   []int   // slot -> class id, -1 when dead
	pos     []int   // slot -> index within members[label[slot]]
	members [][]int // class -> member slots (internal; see ClassMembers)
	freeCls []int   // recycled class ids
	csig    []int   // class -> stable signature id, -1 unknown
	cinit   []int   // class -> interned init-key id

	initTab map[string]int // init key -> dense id
	initStr []string       // dense id -> init key
	byInit  map[int][]int  // init-key id -> candidate classes (lazily compacted)

	liveClasses int
	aliveSlots  int

	dirty []bool
	queue []int

	// reusable scratch
	batch   []int
	idsBuf  []int
	moveBuf []int

	last  UpdateStats
	total UpdateStats
}

// NewDyn computes the initial coarsest stable partition of s and
// returns the engine ready for Update calls. Returns ErrEmptyStructure
// when s has no alive slots.
func NewDyn(s DynStructure) (*Dyn, error) {
	d := &Dyn{
		s:       s,
		initTab: make(map[string]int),
		byInit:  make(map[int][]int),
	}
	d.enc = newSigEncoder(s)
	d.qenc = newSigEncoder(s)
	d.grow(s.Len())
	var st UpdateStats
	d.rebuild(&st)
	if d.aliveSlots == 0 {
		return nil, ErrEmptyStructure
	}
	st.Classes = d.liveClasses
	d.last = st
	d.total = d.total.add(st)
	return d, nil
}

// Len returns the slot-space size (dead slots included).
func (d *Dyn) Len() int { return len(d.label) }

// AliveCount returns the number of alive slots.
func (d *Dyn) AliveCount() int { return d.aliveSlots }

// NumClasses returns the number of live classes.
func (d *Dyn) NumClasses() int { return d.liveClasses }

// Label returns the class of slot i, or -1 when i is dead.
func (d *Dyn) Label(i int) int { return d.label[i] }

// Labels returns a copy of the slot label vector (-1 marks dead slots).
func (d *Dyn) Labels() []int { return append([]int(nil), d.label...) }

// Canonical returns the label vector renumbered by first occurrence
// over ascending slots, with dead slots left at -1. Two Dyn states over
// the same slot space induce the same equivalence relation iff their
// Canonical vectors are equal.
func (d *Dyn) Canonical() []int {
	next := 0
	remap := make(map[int]int, d.liveClasses)
	out := make([]int, len(d.label))
	for i, l := range d.label {
		if l < 0 {
			out[i] = -1
			continue
		}
		r, ok := remap[l]
		if !ok {
			r = next
			remap[l] = r
			next++
		}
		out[i] = r
	}
	return out
}

// ClassMembers returns the member slots of class c, sorted ascending.
// The result is a fresh copy: the engine's internal member lists are
// mutated in place by later Updates (swap-removal, splits, merges), so
// handing out the backing storage would let one event corrupt a
// caller's earlier view. See TestDynClassMembersCopied.
func (d *Dyn) ClassMembers(c int) []int {
	out := append([]int(nil), d.members[c]...)
	sort.Ints(out)
	return out
}

// LastStats returns the statistics of the most recent Update (or the
// initial build).
func (d *Dyn) LastStats() UpdateStats { return d.last }

// TotalStats returns statistics accumulated since NewDyn.
func (d *Dyn) TotalStats() UpdateStats { return d.total }

// Update repairs the partition after a mutation of the underlying
// structure. touched must list every slot whose alive-status, initial
// key, or environment changed — including the former neighbors of
// removed slots (a dead slot no longer reports Dependents, so the
// caller must name the survivors it used to feed). Duplicate entries
// are harmless. The repaired partition is exactly the coarsest stable
// partition FixpointWorklist would compute from scratch on the mutated
// structure.
func (d *Dyn) Update(touched []int) UpdateStats {
	st := UpdateStats{Touched: len(touched)}
	d.grow(d.s.Len())
	quotChanged := false
	for _, x := range touched {
		d.reconcile(x, &st, &quotChanged)
	}
	d.settle(&st, &quotChanged)
	if quotChanged && d.liveClasses > 1 {
		k := d.liveClasses
		if k > 256 && k*k > 64*d.aliveSlots {
			// The quotient is within a constant factor of the full
			// structure: symmetry is already shattered, and refining
			// the quotient would cost more than refining the
			// structure. Rebuild from scratch (and reclaim the
			// signature-id space while at it).
			d.rebuild(&st)
		} else {
			d.mergePass(&st)
		}
	}
	st.Classes = d.liveClasses
	d.last = st
	d.total = d.total.add(st)
	return st
}

func (d *Dyn) grow(n int) {
	for len(d.label) < n {
		d.label = append(d.label, -1)
		d.pos = append(d.pos, 0)
		d.dirty = append(d.dirty, false)
	}
}

func (d *Dyn) lbl(v int) int { return d.label[v] }

func (d *Dyn) initID(key string) int {
	id, ok := d.initTab[key]
	if !ok {
		id = len(d.initStr)
		d.initTab[key] = id
		d.initStr = append(d.initStr, key)
	}
	return id
}

// allocClass returns a (possibly recycled) class id with the given init
// key and unknown stable signature.
func (d *Dyn) allocClass(initID int) int {
	var c int
	if n := len(d.freeCls); n > 0 {
		c = d.freeCls[n-1]
		d.freeCls = d.freeCls[:n-1]
		d.members[c] = d.members[c][:0]
		d.csig[c] = -1
		d.cinit[c] = initID
	} else {
		c = len(d.members)
		d.members = append(d.members, nil)
		d.csig = append(d.csig, -1)
		d.cinit = append(d.cinit, initID)
	}
	d.liveClasses++
	d.byInit[initID] = append(d.byInit[initID], c)
	return c
}

// seat places slot x into class c.
func (d *Dyn) seat(x, c int) {
	d.label[x] = c
	d.pos[x] = len(d.members[c])
	d.members[c] = append(d.members[c], x)
}

// detach removes slot x from its class, freeing the class when emptied.
func (d *Dyn) detach(x int, quotChanged *bool) {
	c := d.label[x]
	m := d.members[c]
	last := m[len(m)-1]
	m[d.pos[x]] = last
	d.pos[last] = d.pos[x]
	d.members[c] = m[:len(m)-1]
	d.label[x] = -1
	if len(d.members[c]) == 0 {
		d.freeCls = append(d.freeCls, c)
		d.liveClasses--
		*quotChanged = true
	}
}

// candidateClass returns a live class with the given init key, or -1.
// The byInit lists are append-only at class creation and compacted
// lazily here (freed ids may have been recycled under another key).
func (d *Dyn) candidateClass(initID int) int {
	list := d.byInit[initID]
	out := list[:0]
	found := -1
	for _, c := range list {
		if d.cinit[c] != initID || len(d.members[c]) == 0 {
			continue
		}
		out = append(out, c)
		if found < 0 {
			found = c
		}
	}
	d.byInit[initID] = out
	return found
}

func (d *Dyn) markDirty(x int) {
	if !d.dirty[x] {
		d.dirty[x] = true
		d.queue = append(d.queue, x)
	}
}

// reconcile brings slot x's membership in line with the structure:
// dead slots are detached; born or rekeyed slots are seated with their
// init-key peers (the settle pass splits them back out if the guess is
// wrong, and the merge pass re-coarsens if it was needlessly shy).
func (d *Dyn) reconcile(x int, st *UpdateStats, quotChanged *bool) {
	if !d.s.Alive(x) {
		if d.label[x] >= 0 {
			d.detach(x, quotChanged)
			d.aliveSlots--
			st.Relabeled++
		}
		return
	}
	ik := d.initID(d.s.InitKey(x))
	if d.label[x] >= 0 && d.cinit[d.label[x]] != ik {
		d.detach(x, quotChanged)
		d.label[x] = -2 // sentinel: alive, awaiting seating
	}
	if d.label[x] < 0 {
		if d.label[x] == -1 {
			d.aliveSlots++
		}
		c := d.candidateClass(ik)
		if c < 0 {
			c = d.allocClass(ik)
			*quotChanged = true
		}
		d.label[x] = -1
		d.seat(x, c)
		st.Relabeled++
	}
	d.markDirty(x)
	for _, dep := range d.s.Dependents(x) {
		d.markDirty(dep)
	}
}

// settle runs the incremental worklist: recompute signatures for dirty
// slots only and split a class exactly when a member's id diverges from
// the class's stored stable id. The invariant it maintains — every
// non-dirty alive slot's signature equals its class's stored id — is
// what makes dirty-only recomputation sound.
func (d *Dyn) settle(st *UpdateStats, quotChanged *bool) {
	for len(d.queue) > 0 {
		st.Rounds++
		batch := d.batch[:0]
		for _, x := range d.queue {
			if d.dirty[x] {
				d.dirty[x] = false
				if d.label[x] >= 0 {
					batch = append(batch, x)
				}
			}
		}
		d.queue = d.queue[:0]
		// Group dirty slots by their class at gather time; splits only
		// relabel slots within the group being processed, so later
		// groups stay intact.
		sort.Slice(batch, func(a, b int) bool {
			if d.label[batch[a]] != d.label[batch[b]] {
				return d.label[batch[a]] < d.label[batch[b]]
			}
			return batch[a] < batch[b]
		})
		d.batch = batch
		var relabeled []int
		for i := 0; i < len(batch); {
			c := d.label[batch[i]]
			j := i
			for j < len(batch) && d.label[batch[j]] == c {
				j++
			}
			relabeled = d.settleClass(c, batch[i:j], st, quotChanged, relabeled)
			i = j
		}
		for _, x := range relabeled {
			d.markDirty(x)
			for _, dep := range d.s.Dependents(x) {
				d.markDirty(dep)
			}
		}
	}
}

// settleClass processes one class with the given dirty members,
// appending relabeled slots to out.
func (d *Dyn) settleClass(c int, dirtyMembers []int, st *UpdateStats, quotChanged *bool, out []int) []int {
	st.TouchedClasses++
	stable := d.csig[c]
	work := dirtyMembers
	if stable < 0 {
		// Fresh class: no stored signature to compare against, so the
		// whole membership must be encoded.
		work = d.members[c]
	}
	ids := d.idsBuf[:0]
	for _, x := range work {
		ids = append(ids, d.enc.sigID(x, d.lbl))
	}
	d.idsBuf = ids
	st.SigComputes += len(work)

	if stable >= 0 {
		same := true
		for _, id := range ids {
			if id != stable {
				same = false
				break
			}
		}
		if same {
			return out
		}
		*quotChanged = true
		if len(dirtyMembers) == len(d.members[c]) {
			// Every member was recomputed: fall through to the
			// full-regroup path below (the stored id may have no
			// takers left).
			stable = -1
		}
	}

	if stable >= 0 {
		// Non-dirty members hold the stored id by the settle invariant;
		// split out the dirty members that diverged, grouped by id.
		return d.splitOut(c, work, ids, stable, st, out)
	}

	// Full regroup: keep the group containing the smallest member under
	// the old class id (deterministic, mirrors splitClassIDs) and carve
	// the rest out in ascending id order.
	minAt := 0
	for k, x := range work {
		if x < work[minAt] {
			minAt = k
		}
	}
	keep := ids[minAt]
	if d.csig[c] != keep {
		d.csig[c] = keep
		*quotChanged = true
	}
	return d.splitOut(c, work, ids, keep, st, out)
}

// splitOut moves every slot of work whose id differs from keep into a
// new class per distinct id (ascending id order), leaving keep-id slots
// in place. Returns out extended with the relabeled slots.
func (d *Dyn) splitOut(c int, work []int, ids []int, keep int, st *UpdateStats, out []int) []int {
	distinct := d.moveBuf[:0]
	for _, id := range ids {
		if id == keep {
			continue
		}
		seen := false
		for _, v := range distinct {
			if v == id {
				seen = true
				break
			}
		}
		if !seen {
			distinct = append(distinct, id)
		}
	}
	d.moveBuf = distinct
	if len(distinct) == 0 {
		return out
	}
	sort.Ints(distinct)
	// Snapshot the movers before detaching: detach swap-mutates the
	// member list work may alias (the stable<0 path passes members[c]).
	type mover struct{ slot, id int }
	movers := make([]mover, 0, len(work))
	for k, x := range work {
		if ids[k] != keep {
			movers = append(movers, mover{x, ids[k]})
		}
	}
	initID := d.cinit[c]
	var dummy bool
	for _, id := range distinct {
		nc := d.allocClass(initID)
		d.csig[nc] = id
		st.Splits++
		for _, m := range movers {
			if m.id != id {
				continue
			}
			d.detach(m.slot, &dummy)
			d.seat(m.slot, nc)
			st.Relabeled++
			out = append(out, m.slot)
		}
	}
	return out
}

// mergePass computes the coarsest stable partition of the quotient
// structure (one node per live class, signatures of a representative
// member evaluated through the composed labeling) and merges the
// classes that coalesce. Any stable partition refining the initial one
// also refines the coarsest, so the settled partition refines the
// target and the pullback of the quotient's coarsest partition is
// exactly the global coarsest — merging happens precisely where
// coarseness is restorable.
func (d *Dyn) mergePass(st *UpdateStats) {
	st.MergePass = true
	qids := make([]int, 0, d.liveClasses)
	for c := range d.members {
		if len(d.members[c]) > 0 {
			qids = append(qids, c)
		}
	}
	k := len(qids)
	qidx := make(map[int]int, k)
	for qi, c := range qids {
		qidx[c] = qi
	}
	// Initial quotient labels: group classes by init key, in sorted key
	// order for determinism.
	ordered := append([]int(nil), qids...)
	sort.Slice(ordered, func(a, b int) bool {
		ka, kb := d.initStr[d.cinit[ordered[a]]], d.initStr[d.cinit[ordered[b]]]
		if ka != kb {
			return ka < kb
		}
		return ordered[a] < ordered[b]
	})
	qlabel := make([]int, k)
	next := 0
	for i, c := range ordered {
		if i > 0 && d.cinit[c] != d.cinit[ordered[i-1]] {
			next++
		}
		qlabel[qidx[c]] = next
	}
	next++

	compLbl := func(v int) int { return qlabel[qidx[d.label[v]]] }
	sig := make([]int, k)
	type qnode struct{ label, sig, qi int }
	nodes := make([]qnode, k)
	for round := 0; ; round++ {
		st.Rounds++
		d.qenc.reset()
		for qi, c := range qids {
			sig[qi] = d.qenc.sigID(d.members[c][0], compLbl)
		}
		st.SigComputes += k
		for qi := range nodes {
			nodes[qi] = qnode{qlabel[qi], sig[qi], qi}
		}
		sort.Slice(nodes, func(a, b int) bool {
			if nodes[a].label != nodes[b].label {
				return nodes[a].label < nodes[b].label
			}
			if nodes[a].sig != nodes[b].sig {
				return nodes[a].sig < nodes[b].sig
			}
			return nodes[a].qi < nodes[b].qi
		})
		changed := false
		for i := 0; i < len(nodes); {
			j := i
			for j < len(nodes) && nodes[j].label == nodes[i].label {
				j++
			}
			// Subgroups by signature within one label group: the
			// subgroup holding the smallest qi keeps the label.
			minQi, minSig := nodes[i].qi, nodes[i].sig
			for t := i; t < j; t++ {
				if nodes[t].qi < minQi {
					minQi, minSig = nodes[t].qi, nodes[t].sig
				}
			}
			for t := i; t < j; {
				u := t
				for u < j && nodes[u].sig == nodes[t].sig {
					u++
				}
				if nodes[t].sig != minSig {
					for w := t; w < u; w++ {
						qlabel[nodes[w].qi] = next
					}
					next++
					changed = true
				}
				t = u
			}
			i = j
		}
		if !changed {
			break
		}
	}

	// Pull back: quotient classes holding >1 structure classes merge.
	groups := make(map[int][]int)
	for qi, c := range qids {
		groups[qlabel[qi]] = append(groups[qlabel[qi]], c)
	}
	keys := make([]int, 0, len(groups))
	for l, g := range groups {
		if len(g) > 1 {
			keys = append(keys, l)
		}
	}
	sort.Ints(keys)
	var moved []int
	for _, l := range keys {
		g := groups[l]
		// Survivor: the largest class (fewest relabels), smallest id on
		// ties — deterministic.
		surv := g[0]
		for _, c := range g[1:] {
			if len(d.members[c]) > len(d.members[surv]) ||
				(len(d.members[c]) == len(d.members[surv]) && c < surv) {
				surv = c
			}
		}
		for _, c := range g {
			if c == surv {
				continue
			}
			for _, x := range d.members[c] {
				d.label[x] = surv
				d.pos[x] = len(d.members[surv])
				d.members[surv] = append(d.members[surv], x)
				st.Relabeled++
				moved = append(moved, x)
			}
			d.members[c] = d.members[c][:0]
			d.freeCls = append(d.freeCls, c)
			d.liveClasses--
			st.Merges++
		}
	}
	if len(moved) == 0 {
		return
	}
	// Labels moved, so stored stable ids are stale wherever a dependent
	// of a moved slot lives. Refresh every live class from a
	// representative (members are uniform by the theory above), then
	// re-settle defensively: if an implementation bug ever left the
	// pullback unstable, the worklist restores stability and the
	// differential fuzzer flags the coarseness gap.
	for c := range d.members {
		if len(d.members[c]) > 0 {
			d.csig[c] = d.enc.sigID(d.members[c][0], d.lbl)
		}
	}
	st.SigComputes += d.liveClasses
	for _, x := range moved {
		d.markDirty(x)
		for _, dep := range d.s.Dependents(x) {
			d.markDirty(dep)
		}
	}
	var dummy bool
	d.settle(st, &dummy)
}

// rebuild recomputes the partition from scratch: initial classes by
// init key (sorted for determinism), everything dirty, one settle to
// the fixpoint. Also reclaims the persistent signature-id space.
func (d *Dyn) rebuild(st *UpdateStats) {
	st.Rebuild = true
	d.enc.reset()
	d.members = d.members[:0]
	d.freeCls = d.freeCls[:0]
	d.csig = d.csig[:0]
	d.cinit = d.cinit[:0]
	d.byInit = make(map[int][]int)
	d.liveClasses = 0
	d.aliveSlots = 0
	for i := range d.dirty {
		d.dirty[i] = false
	}
	d.queue = d.queue[:0]

	n := d.s.Len()
	byKey := make(map[string][]int)
	for i := 0; i < n; i++ {
		if !d.s.Alive(i) {
			d.label[i] = -1
			continue
		}
		d.aliveSlots++
		k := d.s.InitKey(i)
		byKey[k] = append(byKey[k], i)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		c := d.allocClass(d.initID(k))
		for _, i := range byKey[k] {
			d.seat(i, c)
			d.markDirty(i)
		}
	}
	var dummy bool
	d.settle(st, &dummy)
}

// Check audits the engine's invariants: membership/position coherence,
// init-key uniformity, and — the stability certificate — that every
// alive slot's signature matches its class's stored stable id. Meant
// for tests; cost is one full signature sweep.
func (d *Dyn) Check() error {
	alive := 0
	for i, l := range d.label {
		if l < 0 {
			if d.s.Alive(i) {
				return fmt.Errorf("partition: alive slot %d has no class", i)
			}
			continue
		}
		if !d.s.Alive(i) {
			return fmt.Errorf("partition: dead slot %d has class %d", i, l)
		}
		alive++
		if d.pos[i] >= len(d.members[l]) || d.members[l][d.pos[i]] != i {
			return fmt.Errorf("partition: slot %d position bookkeeping broken", i)
		}
		if got := d.initID(d.s.InitKey(i)); got != d.cinit[l] {
			return fmt.Errorf("partition: slot %d init key drifted from class %d", i, l)
		}
	}
	if alive != d.aliveSlots {
		return fmt.Errorf("partition: alive count %d != tracked %d", alive, d.aliveSlots)
	}
	live := 0
	for c := range d.members {
		if len(d.members[c]) == 0 {
			continue
		}
		live++
		for _, x := range d.members[c] {
			if d.label[x] != c {
				return fmt.Errorf("partition: member %d of class %d labeled %d", x, c, d.label[x])
			}
			if got := d.enc.sigID(x, d.lbl); got != d.csig[c] {
				return fmt.Errorf("partition: slot %d signature %d != class %d stable %d",
					x, got, c, d.csig[c])
			}
		}
	}
	if live != d.liveClasses {
		return fmt.Errorf("partition: live class count %d != tracked %d", live, d.liveClasses)
	}
	return nil
}
