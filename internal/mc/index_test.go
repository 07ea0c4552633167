package mc

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"simsym/internal/canon"
)

// testKey builds a canonically framed state key (uvarint length-prefixed
// components, like machine.AppendStateKey) from the component values.
func testKey(vals ...string) []byte {
	var buf []byte
	for _, v := range vals {
		buf = canon.AppendLenPrefixed(buf, v)
	}
	return buf
}

// entryAt resolves a committed gid to its shard and entry.
func (t *stateIndex) entryAt(gid int64) (*indexShard, *entry) {
	loc := *t.where.at(int(gid - t.baseID))
	sh := &t.shards[loc>>locShift]
	return sh, sh.entries.at(int(loc & locMask))
}

// mustInsert inserts a key known to be absent and returns its gid. A
// non-negative ancGID offers the keyframe of that committed state —
// whose bytes must be ancKey — for delta encoding; -1 stores key full.
func mustInsert(t *testing.T, idx *stateIndex, key []byte, ancGID int64, ancKey []byte) int64 {
	t.Helper()
	hash := hashKey(key)
	if _, ok, err := idx.lookupHashed(key, hash); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatalf("key %q unexpectedly present", key)
	}
	var anc keyLoc
	if ancGID >= 0 {
		loc, k, err := idx.ancestorFor(ancGID, &[]byte{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(k, ancKey) {
			t.Fatalf("ancestor of gid %d is %q, not %q", ancGID, k, ancKey)
		}
		anc = loc
	}
	return idx.insert(key, hash, anc, ancKey)
}

// TestIndexIDWidthBoundary pins the int32 → int64 id fix: the old index
// stored ids as []int32, so the id stream silently wrapped and aliased
// distinct states past 2³¹. The baseID hook pins the stream right at the
// boundary; crossing it must neither truncate nor alias.
func TestIndexIDWidthBoundary(t *testing.T) {
	idx := newStateIndex(4, 0, "")
	idx.baseID = (int64(1) << 31) - 2

	keys := make([][]byte, 6)
	gids := make([]int64, 6)
	for i := range keys {
		keys[i] = testKey(fmt.Sprintf("pc=%d", i), "x=0", "halted")
		gids[i] = mustInsert(t, idx, keys[i], -1, nil)
		if want := idx.baseID + int64(i); gids[i] != want {
			t.Fatalf("gid %d = %d, want %d", i, gids[i], want)
		}
	}
	if gids[5] <= int64(1)<<31 {
		t.Fatalf("test must cross the int32 boundary; last gid = %d", gids[5])
	}
	// Every key must resolve to its own id — an int32-width index would
	// alias ids 2147483646 and beyond after truncation.
	for i, key := range keys {
		gid, ok, err := idx.lookupHashed(key, hashKey(key))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || gid != gids[i] {
			t.Errorf("key %d resolved to gid %d (ok=%v), want %d", i, gid, ok, gids[i])
		}
		if int32(gid) == int32(gids[(i+1)%len(gids)]) && gid != gids[(i+1)%len(gids)] {
			// Purely documentary: truncation would have collided these.
			t.Logf("gids %d and %d collide after int32 truncation", gid, gids[(i+1)%len(gids)])
		}
	}
}

// TestIndexMemBytesCountsCapacities pins the capacity-accounting fix:
// the arena allocates whole chunks, so even a single tiny key must be
// charged a full chunk — the old length-based estimate undercounted by
// nearly the whole allocation and fired the memory budget late.
func TestIndexMemBytesCountsCapacities(t *testing.T) {
	idx := newStateIndex(1, 0, "")
	small := testKey("a")
	mustInsert(t, idx, small, -1, nil)
	if got := idx.memBytes(); got < chunkSize {
		t.Errorf("memBytes = %d after one insert; a %d-byte chunk is allocated and must be charged", got, chunkSize)
	}

	// The bucket directory must charge exactly bucketSlotSize per
	// allocated open-addressing slot, and entries forced to share one
	// full hash must land in separate slots that all still resolve
	// exactly (the probe chain disambiguates by key comparison).
	idx2 := newStateIndex(1, 0, "")
	hash := hashKey(testKey("seed"))
	for i := 0; i < 100; i++ {
		idx2.insert(testKey(fmt.Sprintf("k=%d", i)), hash, keyLoc{}, nil)
	}
	sh := &idx2.shards[0]
	if sh.buckets.n != 100 {
		t.Errorf("bucket table holds %d entries, want 100", sh.buckets.n)
	}
	for i := 0; i < 100; i++ {
		gid, ok, err := idx2.lookupHashed(testKey(fmt.Sprintf("k=%d", i)), hash)
		if err != nil || !ok {
			t.Fatalf("same-hash key %d not found (ok=%v, err=%v)", i, ok, err)
		}
		if gid != int64(i) {
			t.Errorf("same-hash key %d resolved to gid %d", i, gid)
		}
	}
	if got, wantMin := idx2.memBytes(), int64(len(sh.buckets.slots))*bucketSlotSize; got < wantMin {
		t.Errorf("memBytes = %d must cover the bucket directory's %d bytes", got, wantMin)
	}
	if got, wantMin := idx2.memBytes(), sh.entries.capBytes(entrySize); got < wantMin {
		t.Errorf("memBytes = %d must cover the entries table's %d allocated bytes", got, wantMin)
	}
}

// TestIndexDeltaStorage: a child key differing from its ancestor in one
// component is stored as a delta, resolves exactly, and never aliases a
// near-miss key.
func TestIndexDeltaStorage(t *testing.T) {
	idx := newStateIndex(2, 0, "")
	parent := testKey("pc=0", "pc=0", "lock=free", "turn=0")
	pgid := mustInsert(t, idx, parent, -1, nil)

	anc, ancKey, err := idx.ancestorFor(pgid, &[]byte{})
	if err != nil {
		t.Fatal(err)
	}
	psh, pe := idx.entryAt(pgid)
	if &idx.shards[anc.at>>locShift] != psh || int64(anc.at&locMask) != pe.off || anc.n != pe.n ||
		!bytes.Equal(ancKey, parent) {
		t.Fatalf("full-stored parent must be its own ancestor: location %+v", anc)
	}

	child := testKey("pc=1", "pc=0", "lock=free", "turn=0")
	cgid := mustInsert(t, idx, child, pgid, ancKey)
	snap := idx.statsSnapshot()
	if snap.deltaStates != 1 {
		t.Errorf("deltaStates = %d, want 1", snap.deltaStates)
	}
	if snap.storedBytes >= snap.logicalBytes {
		t.Errorf("delta storage should compress: stored %d >= logical %d", snap.storedBytes, snap.logicalBytes)
	}

	// Exact resolution, no aliasing with a near-miss.
	if gid, ok, _ := idx.lookupHashed(child, hashKey(child)); !ok || gid != cgid {
		t.Errorf("child resolved to %d/%v, want %d", gid, ok, cgid)
	}
	near := testKey("pc=1", "pc=0", "lock=free", "turn=1")
	if _, ok, _ := idx.lookupHashed(near, hashKey(near)); ok {
		t.Error("near-miss key must not match the delta-stored child")
	}

	// A delta-stored state's ancestor is its keyframe, not itself.
	cAnc, cAncKey, err := idx.ancestorFor(cgid, &[]byte{})
	if err != nil {
		t.Fatal(err)
	}
	if cAnc != anc || !bytes.Equal(cAncKey, parent) {
		t.Errorf("delta child's ancestor = %+v, want keyframe %+v", cAnc, anc)
	}
}

// TestIndexSpillRoundTrip: with a hot cap far below the written volume,
// chunks migrate to disk and every key still resolves bit-exactly
// through file reads; release removes the spill directory.
func TestIndexSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	idx := newStateIndex(2, chunkSize/2, dir) // cap below one chunk: spill everything finalized
	var keys [][]byte
	var gids []int64
	// Write a few chunks' worth of keys with some delta-encoded entries.
	var ancGID int64 = -1
	var ancKey []byte
	for i := 0; i < 3000; i++ {
		// Wide, mostly-unique keys so each shard finalizes several
		// chunks (only finalized chunks are spillable).
		key := testKey(fmt.Sprintf("pc=%d", i%7), fmt.Sprintf("x=%0200d", i), "padpadpadpadpadpadpadpad")
		gid := mustInsert(t, idx, key, ancGID, ancKey)
		keys = append(keys, key)
		gids = append(gids, gid)
		if i%10 == 0 {
			var arena []byte
			_, ak, err := idx.ancestorFor(gid, &arena)
			if err != nil {
				t.Fatal(err)
			}
			ancGID, ancKey = gid, append([]byte(nil), ak...)
		}
		if i%500 == 499 {
			if _, err := idx.maybeSpill(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := idx.maybeSpill(); err != nil {
		t.Fatal(err)
	}
	if idx.spilledBytes == 0 {
		t.Fatal("spill tier never engaged despite a sub-chunk hot cap")
	}
	var hot int64
	for i := range idx.shards {
		hot += idx.shards[i].hotBytes()
	}
	if hot > chunkSize*int64(len(idx.shards)) {
		t.Errorf("hot tier holds %d bytes after spilling; at most the active chunk per shard should remain", hot)
	}

	for i := range keys {
		gid, ok, err := idx.lookupHashed(keys[i], hashKey(keys[i]))
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		if !ok || gid != gids[i] {
			t.Errorf("key %d resolved to %d/%v, want %d", i, gid, ok, gids[i])
		}
	}

	if idx.spillPath == "" {
		t.Fatal("spillPath unset after spilling")
	}
	path := idx.spillPath
	idx.release()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("release must remove the spill dir; stat err = %v", err)
	}
}

// TestIndexShardRouting: with multiple shards, keys land on more than
// one shard and the where-table round-trips every gid to its entry.
func TestIndexShardRouting(t *testing.T) {
	idx := newStateIndex(4, 0, "")
	if len(idx.shards) != 4 {
		t.Fatalf("shard count = %d, want 4", len(idx.shards))
	}
	for i := 0; i < 200; i++ {
		key := testKey(fmt.Sprintf("state-%d", i))
		gid := mustInsert(t, idx, key, -1, nil)
		sh, e := idx.entryAt(gid)
		if e.gid != gid {
			t.Fatalf("entryAt(%d) round-trip gave gid %d", gid, e.gid)
		}
		raw, err := sh.read(e.off, int(e.n), &idx.scrA)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, key) {
			t.Fatalf("gid %d stored bytes mismatch", gid)
		}
	}
	used := 0
	for i := range idx.shards {
		if idx.shards[i].entries.len() > 0 {
			used++
		}
	}
	if used < 2 {
		t.Errorf("only %d of 4 shards used across 200 keys; hash routing looks degenerate", used)
	}
}

// TestIndexHashCollisionsStayExact forces distinct keys onto one full
// 64-bit hash — full-stored, delta-stored and spilled entries alike —
// and checks that every lookup still resolves to the key's own id and
// that staging on a colliding bucket hits, stages or defers exactly. The
// key hash makes real collisions vanishingly rare, so only a forced
// hash keeps the exact-comparison path pinned.
func TestIndexHashCollisionsStayExact(t *testing.T) {
	const hash = 0x9e3779b97f4a7c15
	pad := fmt.Sprintf("%0300d", 0) // wide keys fill chunks quickly
	idx := newStateIndex(2, chunkSize/2, t.TempDir())
	defer idx.release()

	colliding := map[string]int64{}
	insert := func(key []byte, anc keyLoc, ancKey []byte) int64 {
		t.Helper()
		if _, ok, err := idx.lookupHashed(key, hash); err != nil || ok {
			t.Fatalf("key %q: present=%v err=%v before insert", key, ok, err)
		}
		gid := idx.insert(key, hash, anc, ancKey)
		colliding[string(key)] = gid
		return gid
	}
	// A full-stored keyframe and four deltas against it.
	frame := testKey("pc=0", "pc=0", "lock=free", pad)
	var arena []byte
	anc, ancKey, err := idx.ancestorFor(insert(frame, keyLoc{}, nil), &arena)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		insert(testKey(fmt.Sprintf("pc=%d", i), "pc=0", "lock=free", pad), anc, ancKey)
	}
	// Four more stored full.
	for i := 0; i < 4; i++ {
		insert(testKey("pc=9", fmt.Sprintf("pc=%d", i), "lock=held", pad), keyLoc{}, nil)
	}
	if d := idx.statsSnapshot().deltaStates; d != 4 {
		t.Fatalf("deltaStates = %d, want 4", d)
	}
	// Bury them under filler so their chunks spill, then add colliding
	// keys in the hot tier, one delta-encoded against the spilled frame.
	for i := 0; i < 1000; i++ {
		mustInsert(t, idx, testKey(fmt.Sprintf("filler=%d", i), pad), -1, nil)
	}
	if _, err := idx.maybeSpill(); err != nil {
		t.Fatal(err)
	}
	if _, e := idx.entryAt(colliding[string(frame)]); e.off >= idx.shards[idx.shardOf(hash)].bound {
		t.Fatal("the colliding keyframe should have spilled")
	}
	insert(testKey("pc=5", "pc=0", "lock=free", pad), anc, ancKey)
	insert(testKey("pc=5", "pc=5", "lock=held", pad), keyLoc{}, nil)
	if len(colliding) < 8 {
		t.Fatalf("only %d colliding keys", len(colliding))
	}
	for key, want := range colliding {
		gid, ok, err := idx.lookupHashed([]byte(key), hash)
		if err != nil || !ok || gid != want {
			t.Errorf("colliding key %q resolved to %d (ok=%v, err=%v), want %d", key, gid, ok, err, want)
		}
	}
	if _, ok, err := idx.lookupHashed(testKey("pc=6", "pc=0", "lock=free", pad), hash); ok || err != nil {
		t.Errorf("absent colliding key matched (err=%v)", err)
	}

	// Staging on two shards: a bucket of hot full entries is decided in
	// place; once it holds a delta entry every colliding span defers to
	// the coordinator's exact lookup.
	sidx := newStateIndex(2, 0, "")
	si := sidx.shardOf(hash)
	var stored [][]byte
	for i := 0; i < 4; i++ {
		key := testKey(fmt.Sprintf("k=%d", i), pad)
		sidx.insert(key, hash, keyLoc{}, nil)
		stored = append(stored, key)
	}
	stage := func(keys ...[]byte) []shardOutcome {
		c := &checker{idx: sidx, nProcs: len(keys)}
		b := batch{}
		for _, k := range keys {
			start := len(b.arena)
			b.arena = append(b.arena, k...)
			b.spans = append(b.spans, succSpan{start: start, end: len(b.arena), hash: hash})
		}
		out := make([]shardOutcome, len(keys))
		for w := 0; w < 2; w++ {
			c.stagePartition(w, 2, []batch{b}, []keyLoc{{}}, [][]byte{nil}, out)
		}
		return out
	}
	fresh := testKey("k=new", pad)
	out := stage(stored[1], fresh, stored[3])
	for j, want := range []int64{1, -1, 3} {
		kind, ei := out[j]>>48, out[j]&(1<<48-1)
		switch {
		case want >= 0 && (kind != outHit || sidx.shards[si].entries.at(int(ei)).gid != want):
			t.Errorf("span %d: outcome %#x, want a hit on gid %d", j, out[j], want)
		case want < 0 && kind != outStaged:
			t.Errorf("span %d: outcome %#x, want staged", j, out[j])
		case want < 0:
			gid := sidx.commitStaged(si, ei)
			if got, ok, _ := sidx.lookupHashed(fresh, hash); !ok || got != gid {
				t.Errorf("staged colliding key resolved to %d/%v, want %d", got, ok, gid)
			}
		}
	}
	fanc, fkey, err := sidx.ancestorFor(0, &arena)
	if err != nil {
		t.Fatal(err)
	}
	child := testKey("k=0'", pad)
	cgid := sidx.insert(child, hash, fanc, fkey)
	if sidx.statsSnapshot().deltaStates != 1 {
		t.Fatal("child should be delta-stored")
	}
	absent := testKey("k=absent", pad)
	out = stage(stored[2], child, absent)
	// A full entry met before the delta one on the probe chain is still
	// an exact hit; a span that reaches the delta entry must defer.
	if o := out[0]; o != outDeferred && (o>>48 != outHit || sidx.shards[si].entries.at(int(o&(1<<48-1))).gid != 2) {
		t.Errorf("span 0: outcome %#x, want deferred or a hit on gid 2", o)
	}
	for j, o := range out[1:] {
		if o != outDeferred {
			t.Errorf("span %d: outcome %#x past a delta entry, want deferred", j+1, o)
		}
	}
	for key, want := range map[string]int64{string(stored[2]): 2, string(child): cgid} {
		if got, ok, _ := sidx.lookupHashed([]byte(key), hash); !ok || got != want {
			t.Errorf("deferred key resolved to %d/%v, want %d", got, ok, want)
		}
	}
	if _, ok, _ := sidx.lookupHashed(absent, hash); ok {
		t.Error("deferred absent key must not match")
	}
}
