package mc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"simsym/internal/machine"
	"simsym/internal/system"
)

func TestTableChunksAndWindows(t *testing.T) {
	tb := table[int]{shift: 3} // 8-element chunks
	for i := 0; i < 5; i++ {
		tb.push(i)
	}
	tb.reserve(4) // 3 slots left in chunk 0: pad to 8
	if tb.len() != 8 {
		t.Fatalf("len after padding reserve = %d, want 8", tb.len())
	}
	off := tb.len()
	for i := 0; i < 4; i++ {
		tb.push(100 + i)
	}
	tb.reserve(4) // 4 slots left in chunk 1: no padding
	if tb.len() != 12 {
		t.Fatalf("len after fitting reserve = %d, want 12", tb.len())
	}
	if got := tb.window(off, 4); !slices.Equal(got, []int{100, 101, 102, 103}) {
		t.Errorf("window = %v", got)
	}
	if got := tb.window(0, 0); got != nil {
		t.Errorf("empty window = %v, want nil", got)
	}
	for i := 0; i < 5; i++ {
		if *tb.at(i) != i {
			t.Errorf("at(%d) = %d", i, *tb.at(i))
		}
	}
	// Chunk 0 grew by append; chunk 1 was allocated whole.
	if len(tb.chunks) != 2 || cap(tb.chunks[1]) != 8 {
		t.Fatalf("chunks = %d (cap of second %d), want 2 (8)", len(tb.chunks), cap(tb.chunks[1]))
	}
	if got, want := tb.capBytes(8), int64(cap(tb.chunks[0])+8)*8; got != want {
		t.Errorf("capBytes = %d, want %d", got, want)
	}
}

// lockRing is an n-philosopher ring: processor i names variable i
// "a" (left) and variable i+1 "b" (right). Under lockThenRelease the
// all-left state is a deadlock, reached after a few hundred states.
func lockRing(n int) *system.System {
	s := &system.System{Names: []system.Name{"a", "b"}}
	for i := 0; i < n; i++ {
		s.ProcIDs = append(s.ProcIDs, fmt.Sprintf("p%d", i))
		s.VarIDs = append(s.VarIDs, fmt.Sprintf("v%d", i))
		s.Nbr = append(s.Nbr, []int{i, (i + 1) % n})
		s.ProcInit = append(s.ProcInit, "0")
		s.VarInit = append(s.VarInit, "0")
	}
	return s
}

// lockThenRelease spin-locks the left then the right variable, releases
// both and halts.
func lockThenRelease(b *machine.Builder) {
	ga, gb := b.Sym("ga"), b.Sym("gb")
	b.Label("la")
	b.Lock("a", "ga")
	b.JumpIf(func(r *machine.Regs) bool { return r.Get(ga) != true }, "la")
	b.Label("lb")
	b.Lock("b", "gb")
	b.JumpIf(func(r *machine.Regs) bool { return r.Get(gb) != true }, "lb")
	b.Unlock("b")
	b.Unlock("a")
	b.Halt()
}

// TestChunkedTablesMatchUnchunked runs the same closures with 16-element
// table chunks — so nodes, successor windows, the id table and the
// entries cross chunk boundaries in the middle of BFS levels — and with
// chunks so large that every table is one flat slice, and requires
// identical exploration graphs: every node's parent, step and successor
// window, every scheduleTo witness, the stuck component, the id table
// and the index entries. The memory estimate must charge every table
// chunk's allocated capacity.
func TestChunkedTablesMatchUnchunked(t *testing.T) {
	defer func(s uint) { tableShift = s }(tableShift)
	factory := factoryFor(t, lockRing(4), system.InstrL, lockThenRelease)
	run := func(shift uint, sym bool) *checker {
		tableShift = shift
		c, _, err := check(factory, Options{StuckBad: NotAllHalted, SymmetryReduce: sym})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, sym := range []bool{false, true} {
		flat, chunked := run(30, sym), run(4, sym)
		what := fmt.Sprintf("sym=%v", sym)
		assertIdentical(t, flat.res, chunked.res, what+": chunked vs flat tables")
		if flat.res.Violation == nil {
			t.Fatalf("%s: the lock ring must deadlock", what)
		}
		if w := chunked.stats.PeakFrontier; w <= 16 {
			t.Fatalf("%s: peak frontier %d fits one 16-element chunk; no level crosses a boundary", what, w)
		}
		for name, chunks := range map[string][2]int{
			"nodes":   {len(flat.nodes.chunks), len(chunked.nodes.chunks)},
			"succs":   {len(flat.succArena.chunks), len(chunked.succArena.chunks)},
			"where":   {len(flat.idx.where.chunks), len(chunked.idx.where.chunks)},
			"entries": {len(flat.idx.shards[0].entries.chunks), len(chunked.idx.shards[0].entries.chunks)},
		} {
			if chunks[0] != 1 || chunks[1] < 4 {
				t.Fatalf("%s: %s has %d flat and %d small chunks; want 1 and several", what, name, chunks[0], chunks[1])
			}
		}

		n := flat.nodes.len()
		if chunked.nodes.len() != n {
			t.Fatalf("%s: %d nodes chunked, %d flat", what, chunked.nodes.len(), n)
		}
		for v := 0; v < n; v++ {
			a, b := flat.nodes.at(v), chunked.nodes.at(v)
			if a.parent != b.parent || a.step != b.step || a.stuck != b.stuck || a.succN != b.succN {
				t.Fatalf("%s: node %d differs: %+v vs %+v", what, v, *a, *b)
			}
			if sa, sb := flat.succArena.window(a.succOff, int(a.succN)), chunked.succArena.window(b.succOff, int(b.succN)); !slices.Equal(sa, sb) {
				t.Fatalf("%s: node %d successors %v chunked, %v flat", what, v, sb, sa)
			}
			if sa, sb := flat.scheduleTo(v), chunked.scheduleTo(v); !slices.Equal(sa, sb) {
				t.Fatalf("%s: node %d witness %v chunked, %v flat", what, v, sb, sa)
			}
			if *flat.idx.where.at(v) != *chunked.idx.where.at(v) {
				t.Fatalf("%s: gid %d located at %#x chunked, %#x flat", what, v, *chunked.idx.where.at(v), *flat.idx.where.at(v))
			}
		}
		fe, ce := &flat.idx.shards[0].entries, &chunked.idx.shards[0].entries
		for i := 0; i < fe.len(); i++ {
			if *fe.at(i) != *ce.at(i) {
				t.Fatalf("%s: entry %d differs: %+v vs %+v", what, i, *ce.at(i), *fe.at(i))
			}
		}
		fi, fr := findStuckComponent(&flat.nodes, &flat.succArena)
		ci, cr := findStuckComponent(&chunked.nodes, &chunked.succArena)
		if fi != ci || fr != cr || fi < 0 {
			t.Fatalf("%s: stuck component %d (reason %d) chunked, %d (reason %d) flat", what, ci, cr, fi, fr)
		}

		// Every allocated chunk slot is charged, padding included.
		var tables int64
		for _, c := range chunked.nodes.chunks {
			tables += int64(cap(c)) * 32
		}
		for _, c := range chunked.succArena.chunks {
			tables += int64(cap(c)) * 8
		}
		for _, c := range chunked.idx.where.chunks {
			tables += int64(cap(c)) * 8
		}
		for _, c := range chunked.idx.shards[0].entries.chunks {
			tables += int64(cap(c)) * entrySize
		}
		if got := chunked.memEstimate(); got < tables+chunked.idx.shards[0].hotBytes() {
			t.Errorf("%s: memEstimate %d does not cover %d bytes of table chunks plus the key arena", what, got, tables)
		}
	}
}

// TestExplorationGraphMatchesReplay checks the exploration graph against
// ground truth that shares no priming with the checker: every node's
// witness schedule is replayed on a fresh machine, whose orbit-least key
// must be unique to that node, and stepping the replayed state through
// every processor must reach exactly the nodes of its successor window,
// in order, self-loops skipped. A kept state primed from any key but its
// own unpermuted one — say the orbit-least key under symmetry reduction
// — expands into the wrong children and fails here.
func TestExplorationGraphMatchesReplay(t *testing.T) {
	factory := factoryFor(t, lockRing(4), system.InstrL, lockThenRelease)
	for _, sym := range []bool{false, true} {
		c, res, err := check(factory, Options{StuckBad: NotAllHalted, SymmetryReduce: sym})
		if err != nil {
			t.Fatal(err)
		}
		if sym && res.Stats.GroupOrder < 2 {
			t.Fatalf("the lock ring's rotations should reduce the search; group order %d", res.Stats.GroupOrder)
		}
		canonical := func(m *machine.Machine) string {
			best := m.AppendStateKey(nil, nil, nil)
			for _, perm := range c.perms {
				if k := m.AppendStateKey(nil, perm.ProcPerm, perm.VarPerm); string(k) < string(best) {
					best = k
				}
			}
			return string(best)
		}
		replay := func(sched []int) *machine.Machine {
			m, err := factory()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(sched); err != nil {
				t.Fatal(err)
			}
			return m
		}
		n := c.nodes.len()
		ids := make(map[string]int, n)
		for v := 0; v < n; v++ {
			k := canonical(replay(c.scheduleTo(v)))
			if u, dup := ids[k]; dup {
				t.Fatalf("sym=%v: nodes %d and %d replay to one orbit", sym, u, v)
			}
			ids[k] = v
		}
		for v := 0; v < n; v++ {
			sched := c.scheduleTo(v)
			parent := replay(sched).AppendStateKey(nil, nil, nil)
			var got []int
			for p := 0; p < c.nProcs; p++ {
				child := replay(append(slices.Clone(sched), p))
				if string(child.AppendStateKey(nil, nil, nil)) == string(parent) {
					continue // self-loop
				}
				id, ok := ids[canonical(child)]
				if !ok {
					t.Fatalf("sym=%v: node %d's step %d reaches a state the checker never kept", sym, v, p)
				}
				got = append(got, id)
			}
			nd := c.nodes.at(v)
			if want := c.succArena.window(nd.succOff, int(nd.succN)); !slices.Equal(got, want) {
				t.Fatalf("sym=%v: node %d replays to successors %v, graph has %v", sym, v, got, want)
			}
		}
	}
}

// findStuckComponentOracle is the textbook form of findStuckComponent:
// Tarjan's algorithm over flat node and edge slices, with separate
// DFS-number, on-stack and component tables. findStuckComponent packs
// the three into one table; both must pick the same component.
func findStuckComponentOracle(nodes []node, succs []int) (int, int32) {
	n := len(nodes)
	indexOf, low, comp := make([]int, n), make([]int, n), make([]int, n)
	onStack := make([]bool, n)
	for i := range indexOf {
		indexOf[i], comp[i] = -1, -1
	}
	var stack []int
	counter, nComps := 0, 0
	var visit func(v int)
	visit = func(v int) {
		indexOf[v], low[v] = counter, counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succs[nodes[v].succOff : nodes[v].succOff+int(nodes[v].succN)] {
			if indexOf[w] == -1 {
				visit(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], indexOf[w])
			}
		}
		if low[v] == indexOf[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = nComps
				if w == v {
					break
				}
			}
			nComps++
		}
	}
	for v := 0; v < n; v++ {
		if indexOf[v] == -1 {
			visit(v)
		}
	}
	terminal, allBad := make([]bool, nComps), make([]bool, nComps)
	reason, repr := make([]int32, nComps), make([]int, nComps)
	for c := range terminal {
		terminal[c], allBad[c], repr[c] = true, true, -1
	}
	for v, nd := range nodes {
		c := comp[v]
		if repr[c] == -1 {
			repr[c] = v
		}
		if nd.stuck == 0 {
			allBad[c] = false
		} else if reason[c] == 0 {
			reason[c] = nd.stuck
		}
		for _, w := range succs[nd.succOff : nd.succOff+int(nd.succN)] {
			if comp[w] != c {
				terminal[c] = false
			}
		}
	}
	for c := range terminal {
		if terminal[c] && allBad[c] {
			return repr[c], reason[c]
		}
	}
	return -1, 0
}

// TestFindStuckComponentMatchesOracle runs findStuckComponent and the
// textbook oracle on random graphs — few or many edges per node, sparse
// or dense stuck flags, 8-element table chunks — and requires the same
// representative and reason every time, including "none".
func TestFindStuckComponentMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	found := 0
	for trial := 0; trial < 400; trial++ {
		n, deg := 1+rng.Intn(60), 1+rng.Intn(4)
		nodes, succs := table[node]{shift: 3}, table[int]{shift: 3}
		var flatNodes []node
		var flatSuccs []int
		for v := 0; v < n; v++ {
			nd := node{parent: -1}
			if rng.Intn(4) != 0 {
				nd.stuck = int32(1 + rng.Intn(3))
			}
			k := rng.Intn(deg + 1)
			succs.reserve(deg)
			nd.succOff, nd.succN = succs.len(), int32(k)
			flat := node{parent: -1, stuck: nd.stuck, succOff: len(flatSuccs), succN: int32(k)}
			for i := 0; i < k; i++ {
				w := rng.Intn(n)
				succs.push(w)
				flatSuccs = append(flatSuccs, w)
			}
			nodes.push(nd)
			flatNodes = append(flatNodes, flat)
		}
		gi, gr := findStuckComponent(&nodes, &succs)
		wi, wr := findStuckComponentOracle(flatNodes, flatSuccs)
		if gi != wi || gr != wr {
			t.Fatalf("trial %d (n=%d): component %d (reason %d), oracle %d (reason %d)", trial, n, gi, gr, wi, wr)
		}
		if wi >= 0 {
			found++
		}
	}
	if found == 0 || found == 400 {
		t.Fatalf("%d of 400 random graphs had a stuck component; want both outcomes", found)
	}
}
