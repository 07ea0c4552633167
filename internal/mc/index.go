package mc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"

	"simsym/internal/canon"
)

// stateIndex is the checker's visited set: a hash-sharded, delta-encoded
// index over binary state keys built to hold 10⁸⁺ states. Keys are
// routed to a shard by the top bits of their 64-bit hashKey hash; inside
// a shard they are bucketed by the full hash and a bucket hit is
// confirmed by comparing the exact encodings, so ids are collision-free
// by construction — hash quality affects only speed, never verdicts.
//
// Three mechanisms keep the per-state footprint small:
//
//   - Ids are int64 (they used to be int32, which silently truncated
//     and aliased distinct states past 2³¹ — exactly the scale this
//     index targets). Ids are dense and assigned in insertion order, so
//     they double as node indices in the checker's bookkeeping; baseID
//     lets tests pin the id stream right at the old 32-bit boundary.
//   - Key bytes live in per-shard chunked arenas (fixed-size chunks,
//     append-only, never moved once allocated), and a key whose BFS
//     lineage stays close to a full-stored ancestor is stored as a
//     canon.AppendKeyDelta patch against that ancestor. Every delta
//     points directly at a full-stored ancestor (chain length one by
//     construction): a state delta-encodes against its parent's
//     keyframe while the patch stays small, and becomes a new keyframe
//     once the lineage has drifted too far. A delta entry records where
//     its keyframe's bytes live (shard, arena offset, length) rather
//     than the keyframe's id, so a dedup hit reads the patch and the
//     keyframe without going through the id table.
//   - When a hot-bytes cap is set, cold chunks spill FIFO to a per-shard
//     file (BFS rarely re-touches old levels, so the spilled majority is
//     read back only on genuine dedup hits against deep history). File
//     offsets equal logical arena offsets, so spilling never rewrites an
//     entry.
//
// Concurrency contract (the checker's level pipeline): during the
// staging step each shard is touched only by its owner goroutine, and
// staging never reads another shard — cross-shard work (ancestor
// resolution, deferred exact comparisons, spilling) happens only on the
// coordinating goroutine between steps. The index therefore needs no
// locks; determinism comes from reduction, not serialization.
type stateIndex struct {
	shards     []indexShard
	shardShift uint // shard id = hash >> shardShift (len(shards) > 1)
	// where maps gid-baseID to its shard and shard-local entry index,
	// packed shard<<48 | idx. Dense: one word per visited state.
	where  table[uint64]
	baseID int64 // first gid assigned; nonzero only in boundary tests

	hotCapBytes int64  // spill threshold over all shards; 0 = never spill
	spillDir    string // parent dir for the spill tempdir
	spillPath   string // created tempdir; "" until first spill

	// Coordinator-side scratch for exact comparisons of spilled entries.
	scrA, scrB []byte

	// Spill accounting (coordinator-only writes).
	spilledBytes int64
	spillFlushes int64
}

// indexShard holds one hash slice of the visited set. All mutation goes
// through its owner: the staging goroutine during the staging step,
// the coordinator otherwise.
type indexShard struct {
	buckets bucketTable // full key hash -> shard-local entry indices
	entries table[entry]
	chunks  [][]byte // chunk i covers logical offsets [i<<chunkShift, ...)
	used    int64    // logical end offset of written bytes
	bound   int64    // offsets below bound are on disk, chunks nil-ed
	file    *os.File
	scratch []byte // delta-encode buffer, reused across stages

	// Exact capacity accounting, maintained incrementally on append.
	padBytes int64 // alignment waste inside chunks

	// Delta statistics (owner-only writes, summed on snapshot).
	deltaStates  int64
	storedBytes  int64 // bytes as stored (full or delta)
	logicalBytes int64 // bytes the full keys would have taken
}

// entry is one visited state: where its (full or delta) bytes live and,
// for a delta, where the full-stored keyframe it patches lives.
type entry struct {
	gid  int64  // dense id; -1 while staged and not yet committed
	off  int64  // logical offset of the stored bytes in the shard arena
	anc  uint64 // keyframe a delta patches: shard<<locShift | arena offset
	n    int32  // stored length
	ancN int32  // keyframe length; 0 = stored full
}

// keyLoc locates a full-stored key by its bytes rather than its id: at
// packs shard<<locShift | logical arena offset, n is the key length.
// The zero keyLoc (n == 0) names no key. Arena offsets are stable —
// chunks never move and spilled chunks keep their offsets on disk — so
// a location stays valid for the index's lifetime.
type keyLoc struct {
	at uint64
	n  int32
}

// locShift splits a packed location (keyLoc.at, entry.anc, and the
// where table's entries) into shard id and shard-local position.
const (
	locShift = 48
	locMask  = 1<<locShift - 1
)

const (
	chunkShift = 16 // 64 KiB chunks
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1

	// entrySize feeds the memory estimate: the entry struct itself. The
	// bucket directory's footprint is exact — bucketSlotSize bytes per
	// allocated open-addressing slot.
	entrySize      = 32
	bucketSlotSize = 16 // one bucketSlot: uint64 hash + int64 entry ref

	// A delta is stored only while it is meaningfully smaller than the
	// full key; otherwise the state becomes a new full-stored keyframe.
	deltaNum, deltaDen = 1, 2
)

// newStateIndex sizes the index: shards is clamped to a power of two in
// [1, 256]; hotCapBytes > 0 arms the spill tier, writing under dir
// (os.TempDir() when dir is empty).
func newStateIndex(shards int, hotCapBytes int64, dir string) *stateIndex {
	s := 1
	for s < shards && s < 256 {
		s <<= 1
	}
	return &stateIndex{
		shards:      make([]indexShard, s),
		shardShift:  64 - uint(bitLen(s-1)),
		hotCapBytes: hotCapBytes,
		spillDir:    dir,
	}
}

func bitLen(x int) int {
	n := 0
	for x > 0 {
		n++
		x >>= 1
	}
	return n
}

// bucketTable is an open-addressed multimap from full key hashes to
// shard-local entry indices — the shard's bucket directory. A lookup is
// one masked index plus a short linear scan (load never exceeds 3/4)
// over slots that each hold a hash and its entry together, so a probe
// touches one cache line per slot, with no hashing of the
// already-hashed key and no per-key slice headers. Entries sharing a
// full 64-bit hash (collisions, effectively nonexistent) occupy separate
// slots along the probe chain; exact key comparison disambiguates them,
// so probe order never affects verdicts.
type bucketTable struct {
	slots []bucketSlot
	mask  uint64
	n     int
}

// bucketSlot is one directory slot: ref is the entry index plus one, so
// a zeroed slot is empty and a fresh table needs no initialization.
type bucketSlot struct {
	hash uint64
	ref  int64
}

// add inserts an entry index under hash, growing at 3/4 load.
func (bt *bucketTable) add(hash uint64, ei int64) {
	if bt.n*4 >= len(bt.slots)*3 {
		bt.grow()
	}
	bt.place(bucketSlot{hash: hash, ref: ei + 1})
	bt.n++
}

// place puts s in the first free slot of its probe chain.
func (bt *bucketTable) place(s bucketSlot) {
	sl := s.hash & bt.mask
	for bt.slots[sl].ref != 0 {
		sl = (sl + 1) & bt.mask
	}
	bt.slots[sl] = s
}

func (bt *bucketTable) grow() {
	old := bt.slots
	size := 1024
	if len(old) > 0 {
		size = len(old) * 2
	}
	bt.slots = make([]bucketSlot, size)
	bt.mask = uint64(size - 1)
	for _, s := range old {
		if s.ref != 0 {
			bt.place(s)
		}
	}
}

// hashKey is the index's key hash: a fixed-constant multiply-fold over
// the key eight bytes at a time (sixteen per round), after the wyhash
// construction. Each round folds the full 128-bit product of two words
// into the state, and the final round does the same to the length, so
// every input bit reaches the top bits shardOf routes on. Collisions are
// harmless (bucket hits are confirmed by exact comparison); the hash
// only has to be fast and spread well.
func hashKey(b []byte) uint64 {
	const (
		k0 = 0xa0761d6478bd642f
		k1 = 0xe7037ed1a0b428db
		k2 = 0x8ebc6af09c88c6e3
	)
	n := uint64(len(b))
	h := k0 ^ n
	for ; len(b) > 16; b = b[16:] {
		h = fold(binary.LittleEndian.Uint64(b)^k1, binary.LittleEndian.Uint64(b[8:])^h)
	}
	var x, y uint64
	switch {
	case len(b) >= 8:
		x, y = binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[len(b)-8:])
	case len(b) >= 4:
		x, y = uint64(binary.LittleEndian.Uint32(b)), uint64(binary.LittleEndian.Uint32(b[len(b)-4:]))
	case len(b) > 0:
		x = uint64(b[0])<<16 | uint64(b[len(b)>>1])<<8 | uint64(b[len(b)-1])
	}
	return fold(fold(x^k1, y^h)^k2, n^k1)
}

// fold multiplies a and b to 128 bits and xors the halves together.
func fold(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// shardOf routes a key hash to its owning shard.
func (t *stateIndex) shardOf(hash uint64) int {
	if len(t.shards) == 1 {
		return 0
	}
	return int(hash >> t.shardShift)
}

// nextGID is the id the next committed state will receive.
func (t *stateIndex) nextGID() int64 { return t.baseID + int64(t.where.len()) }

// lookupHashed reports whether key (with its precomputed hash) is
// already indexed, and its id if so. Coordinator-only: comparing against
// delta-stored or spilled entries may touch any shard.
func (t *stateIndex) lookupHashed(key []byte, hash uint64) (gid int64, ok bool, err error) {
	sh := &t.shards[t.shardOf(hash)]
	bt := &sh.buckets
	if bt.slots == nil {
		return 0, false, nil
	}
	for sl := hash & bt.mask; bt.slots[sl].ref != 0; sl = (sl + 1) & bt.mask {
		s := bt.slots[sl]
		if s.hash != hash {
			continue
		}
		e := sh.entries.at(int(s.ref - 1))
		eq, err := t.entryEqual(sh, e, key)
		if err != nil {
			return 0, false, err
		}
		if eq {
			return e.gid, true, nil
		}
	}
	return 0, false, nil
}

// entryEqual compares a stored entry against a candidate key exactly.
// Full entries compare directly; delta entries stream-compare via
// canon.KeyDeltaEqual against their keyframe's bytes, read straight from
// the recorded location, without materializing the patched key. Spilled
// bytes are read back through the coordinator scratch buffers.
func (t *stateIndex) entryEqual(sh *indexShard, e *entry, key []byte) (bool, error) {
	raw, err := sh.read(e.off, int(e.n), &t.scrA)
	if err != nil {
		return false, err
	}
	if e.ancN == 0 {
		return bytes.Equal(raw, key), nil
	}
	ancSh := &t.shards[e.anc>>locShift]
	ancRaw, err := ancSh.read(int64(e.anc&locMask), int(e.ancN), &t.scrB)
	if err != nil {
		return false, err
	}
	return canon.KeyDeltaEqual(ancRaw, raw, key), nil
}

// ancestorFor returns the full-stored ancestor of a committed state —
// the state itself when stored full, its keyframe otherwise — as a
// location plus the key bytes. Hot keys are returned zero-copy (chunks
// never move, so the slice stays valid); spilled keys are appended into
// arena with stable-arena semantics — earlier slices handed out from the
// same arena remain valid. Coordinator-only.
func (t *stateIndex) ancestorFor(gid int64, arena *[]byte) (keyLoc, []byte, error) {
	w := *t.where.at(int(gid - t.baseID))
	sh := &t.shards[w>>locShift]
	e := sh.entries.at(int(w & locMask))
	loc := keyLoc{at: w&^locMask | uint64(e.off), n: e.n}
	if e.ancN > 0 {
		loc = keyLoc{at: e.anc, n: e.ancN}
		sh = &t.shards[e.anc>>locShift]
	}
	key, err := sh.readStable(int64(loc.at&locMask), int(loc.n), arena)
	if err != nil {
		return keyLoc{}, nil, err
	}
	return loc, key, nil
}

// insert commits key (not yet present; hash as from lookupHashed) with
// the next dense id and returns it. anc/ancKey name the full-stored
// ancestor candidate for delta encoding; the zero keyLoc forces full
// storage. key is copied; the caller keeps ownership of its buffer.
// Coordinator-only.
func (t *stateIndex) insert(key []byte, hash uint64, anc keyLoc, ancKey []byte) int64 {
	si := t.shardOf(hash)
	ei := t.shards[si].stage(key, hash, anc, ancKey)
	return t.commitStaged(si, ei)
}

// commitStaged assigns the next dense id to a staged entry.
// Coordinator-only.
func (t *stateIndex) commitStaged(si int, ei int64) int64 {
	sh := &t.shards[si]
	gid := t.nextGID()
	sh.entries.at(int(ei)).gid = gid
	t.where.push(uint64(si)<<locShift | uint64(ei))
	return gid
}

// stage appends key to the shard: delta-encoded against the keyframe
// at anc (bytes ancKey) when the patch wins by the deltaNum/deltaDen
// margin, full otherwise. The entry starts uncommitted (gid -1).
// Owner-only.
func (sh *indexShard) stage(key []byte, hash uint64, anc keyLoc, ancKey []byte) int64 {
	stored := key
	e := entry{gid: -1}
	if anc.n > 0 {
		if delta, ok := canon.AppendKeyDelta(sh.scratch[:0], ancKey, key); ok {
			sh.scratch = delta
			if len(delta)*deltaDen <= len(key)*deltaNum {
				stored = delta
				e.anc, e.ancN = anc.at, anc.n
			}
		}
	}
	e.off, e.n = sh.write(stored), int32(len(stored))
	if e.ancN > 0 {
		sh.deltaStates++
	}
	sh.storedBytes += int64(len(stored))
	sh.logicalBytes += int64(len(key))
	ei := int64(sh.entries.push(e))
	sh.buckets.add(hash, ei)
	return ei
}

// write appends b to the chunked arena and returns its logical offset.
// Items never straddle a chunk boundary: a tail that cannot fit the item
// is padding, and an item larger than a chunk gets a dedicated
// exactly-sized chunk whose trailing slots are nil placeholders so chunk
// indices keep matching off >> chunkShift.
func (sh *indexShard) write(b []byte) int64 {
	n := len(b)
	pos := int(sh.used & chunkMask)
	if pos > 0 && pos+n > chunkSize {
		sh.padBytes += int64(chunkSize - pos)
		sh.used = (sh.used + chunkMask) &^ int64(chunkMask)
		pos = 0
	}
	ci := int(sh.used >> chunkShift)
	if ci >= len(sh.chunks) {
		size := chunkSize
		if n > chunkSize {
			size = n
		}
		sh.chunks = append(sh.chunks, make([]byte, size))
	}
	copy(sh.chunks[ci][pos:], b)
	off := sh.used
	sh.used += int64(n)
	if n > chunkSize {
		end := (sh.used + chunkMask) &^ int64(chunkMask)
		sh.padBytes += end - sh.used
		sh.used = end
		for int64(len(sh.chunks))<<chunkShift < sh.used {
			sh.chunks = append(sh.chunks, nil)
		}
	}
	return off
}

// read returns the stored bytes at [off, off+n): zero-copy from a hot
// chunk, read through scratch from the spill file otherwise. The result
// is valid until the next read through the same scratch.
func (sh *indexShard) read(off int64, n int, scratch *[]byte) ([]byte, error) {
	if off >= sh.bound {
		pos := int(off & chunkMask)
		return sh.chunks[off>>chunkShift][pos : pos+n], nil
	}
	if cap(*scratch) < n {
		*scratch = make([]byte, n+n/2)
	}
	buf := (*scratch)[:n]
	if _, err := sh.file.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("mc: spill read: %w", err)
	}
	return buf, nil
}

// readStable is read with stable-arena semantics for spilled entries:
// when the arena block is full a fresh block is started rather than
// grown, so slices previously returned from the same arena stay valid
// (the old blocks are garbage-collected once their slices die).
func (sh *indexShard) readStable(off int64, n int, arena *[]byte) ([]byte, error) {
	if off >= sh.bound {
		pos := int(off & chunkMask)
		return sh.chunks[off>>chunkShift][pos : pos+n], nil
	}
	a := *arena
	if cap(a)-len(a) < n {
		size := chunkSize
		if n > size {
			size = n
		}
		a = make([]byte, 0, size)
	}
	buf := a[len(a) : len(a)+n]
	if _, err := sh.file.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("mc: spill read: %w", err)
	}
	*arena = a[:len(a)+n]
	return buf, nil
}

// hotBytes is the in-memory arena footprint of the shard.
func (sh *indexShard) hotBytes() int64 {
	var total int64
	for _, c := range sh.chunks {
		total += int64(len(c))
	}
	return total
}

// spillWriteHook, when non-nil, intercepts each chunk write to the spill
// tier and can force it to fail — a test seam for fault-injecting the
// write path (disk full, revoked permissions) without a real bad disk.
var spillWriteHook func(shard int) error

// maybeSpill flushes finalized cold chunks FIFO to the per-shard spill
// files until the hot arenas fit under the cap again. Coordinator-only,
// called between BFS levels so no staging goroutine holds hot slices.
// Returns the bytes moved to disk by this call.
//
// Any mid-spill failure releases the whole spill tier before returning:
// the index is unusable for further lookups once a chunk write is lost,
// so holding per-shard file descriptors or the on-disk directory open
// would only leak them — the caller surfaces the error (or degrades to a
// partial result) and never touches the spilled tier again.
func (t *stateIndex) maybeSpill() (int64, error) {
	if t.hotCapBytes <= 0 {
		return 0, nil
	}
	var hot int64
	for i := range t.shards {
		hot += t.shards[i].hotBytes()
	}
	if hot <= t.hotCapBytes {
		return 0, nil
	}
	if t.spillPath == "" {
		dir := t.spillDir
		if dir == "" {
			dir = os.TempDir()
		}
		path, err := os.MkdirTemp(dir, "mc-spill-*")
		if err != nil {
			return 0, fmt.Errorf("mc: spill: %w", err)
		}
		t.spillPath = path
	}
	var freed int64
	for i := range t.shards {
		sh := &t.shards[i]
		for hot-freed > t.hotCapBytes {
			ci := int(sh.bound >> chunkShift)
			if ci >= len(sh.chunks) {
				break
			}
			c := sh.chunks[ci]
			if c == nil { // placeholder slot of an already-spilled jumbo chunk
				sh.bound = int64(ci+1) << chunkShift
				continue
			}
			chunkEnd := int64(ci)<<chunkShift + int64(len(c))
			if chunkEnd > sh.used {
				break // the active chunk still accepts appends
			}
			if sh.file == nil {
				f, err := os.OpenFile(filepath.Join(t.spillPath, fmt.Sprintf("shard-%03d", i)),
					os.O_RDWR|os.O_CREATE, 0o600)
				if err != nil {
					t.release()
					return freed, fmt.Errorf("mc: spill: %w", err)
				}
				sh.file = f
			}
			if spillWriteHook != nil {
				if err := spillWriteHook(i); err != nil {
					t.release()
					return freed, fmt.Errorf("mc: spill write: %w", err)
				}
			}
			if _, err := sh.file.WriteAt(c, int64(ci)<<chunkShift); err != nil {
				t.release()
				return freed, fmt.Errorf("mc: spill write: %w", err)
			}
			freed += int64(len(c))
			t.spilledBytes += int64(len(c))
			sh.chunks[ci] = nil
			sh.bound = (chunkEnd + chunkMask) &^ int64(chunkMask)
		}
	}
	if freed > 0 {
		t.spillFlushes++
	}
	return freed, nil
}

// release closes and removes the spill tier. Idempotent.
func (t *stateIndex) release() {
	for i := range t.shards {
		if f := t.shards[i].file; f != nil {
			f.Close()
			t.shards[i].file = nil
		}
	}
	if t.spillPath != "" {
		os.RemoveAll(t.spillPath)
		t.spillPath = ""
	}
}

// indexStats is the index's observability snapshot.
type indexStats struct {
	shards       int
	deltaStates  int64
	storedBytes  int64
	logicalBytes int64
	spilledBytes int64
	spillFlushes int64
}

func (t *stateIndex) statsSnapshot() indexStats {
	s := indexStats{shards: len(t.shards), spilledBytes: t.spilledBytes, spillFlushes: t.spillFlushes}
	for i := range t.shards {
		sh := &t.shards[i]
		s.deltaStates += sh.deltaStates
		s.storedBytes += sh.storedBytes
		s.logicalBytes += sh.logicalBytes
	}
	return s
}

// memBytes estimates the index's resident memory footprint from
// capacities, not lengths: allocated key chunk bytes (a half-filled
// chunk costs its full size), the entry tables' allocated chunks, the
// bucket directories' slots, and the dense id table's chunks. Spilled
// bytes live on disk and are deliberately excluded. Keeping this honest
// is what lets MaxMemBytes degrade into a Partial result instead of an
// OOM.
func (t *stateIndex) memBytes() int64 {
	total := t.where.capBytes(8)
	total += int64(cap(t.scrA) + cap(t.scrB))
	for i := range t.shards {
		sh := &t.shards[i]
		total += sh.hotBytes()
		total += sh.entries.capBytes(entrySize)
		total += int64(len(sh.buckets.slots)) * bucketSlotSize
		total += int64(cap(sh.scratch))
	}
	return total
}
