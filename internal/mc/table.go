package mc

// table is an append-only table stored in fixed-size chunks of 1<<shift
// elements. Past its first chunk, growing it never copies: a new chunk
// is allocated when the last one is full and no later element ever
// moves, so a large table of n elements costs n elements plus at most
// one partly filled chunk — where a flat slice regrown by append copies,
// and transiently holds, a large share of itself at every growth step.
// The first chunk grows by append, so a check of a handful of states
// allocates a handful of elements.
//
// The checker's per-state tables (nodes, successor edges, the index's id
// table and each shard's entries) are tables; the index's key bytes live
// in indexShard's byte-chunk arena, the same idiom.
type table[T any] struct {
	chunks [][]T
	n      int
	shift  uint // chunk size is 1<<shift; 0 = tableShift, set on first use
}

// tableShift is the default chunk size exponent (16384 elements). A
// variable only so tests can force chunk boundaries into small checks.
var tableShift uint = 14

// len is the number of elements pushed, padding included.
func (t *table[T]) len() int { return t.n }

// at returns a pointer to element i, valid until the next push (which
// may move the first chunk).
func (t *table[T]) at(i int) *T {
	return &t.chunks[i>>t.shift][i&(1<<t.shift-1)]
}

// push appends v and returns its index.
func (t *table[T]) push(v T) int {
	i := t.n
	ci := i >> t.shift
	if ci == len(t.chunks) {
		t.addChunk()
		ci = i >> t.shift
	}
	t.chunks[ci] = append(t.chunks[ci], v)
	t.n++
	return i
}

// addChunk starts the next chunk: the first one empty, to grow by
// append, every later one at full size.
func (t *table[T]) addChunk() {
	if t.shift == 0 {
		t.shift = tableShift
	}
	var c []T
	if len(t.chunks) > 0 {
		c = make([]T, 0, 1<<t.shift)
	}
	t.chunks = append(t.chunks, c)
}

// reserve makes the next k pushes land in one chunk, padding to the next
// chunk boundary when the current one has fewer than k slots left, so
// window can return them as one slice. k must not exceed the chunk size.
func (t *table[T]) reserve(k int) {
	if t.shift == 0 {
		t.shift = tableShift
	}
	mask := 1<<t.shift - 1
	if pos := t.n & mask; pos > 0 && pos+k > mask+1 {
		t.n = (t.n + mask) &^ mask
	}
}

// window returns elements [off, off+k) as one slice; they must have been
// pushed after a reserve(k) (or otherwise lie in one chunk).
func (t *table[T]) window(off, k int) []T {
	if k == 0 {
		return nil
	}
	pos := off & (1<<t.shift - 1)
	return t.chunks[off>>t.shift][pos : pos+k]
}

// capBytes is the table's allocated footprint at elemSize bytes per
// element slot — capacities, not lengths, like every memory estimate.
func (t *table[T]) capBytes(elemSize int64) int64 {
	var slots int64
	for _, c := range t.chunks {
		slots += int64(cap(c))
	}
	return slots * elemSize
}
