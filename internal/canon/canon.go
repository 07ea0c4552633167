// Package canon provides deterministic canonical encodings of Go values.
//
// Canonical encodings serve as state fingerprints throughout simsym: two
// values have the same encoding if and only if they are structurally equal
// under the rules below. The encoding is used to compare processor states
// (Theorem 2's "same state at the same time"), to key model-checker visited
// sets, and to encode the unordered multisets held by Q-variables.
//
// Supported value shapes:
//
//   - nil
//   - bool, all integer kinds, string
//   - []T (ordered sequence)
//   - map[K]V (encoded with keys sorted by their own canonical encoding)
//   - Multiset (unordered collection, encoded sorted)
//   - any type implementing Canonical
//
// Floats are deliberately unsupported: the paper's state spaces are
// discrete, and float NaN semantics would break the equality contract.
package canon

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// Canonical is implemented by types that define their own canonical form.
type Canonical interface {
	// CanonicalString returns a deterministic encoding of the value.
	// Two values must return the same string iff they are equal.
	CanonicalString() string
}

// Multiset is an unordered collection of values. Its canonical encoding
// sorts the element encodings, so element order never matters. It models
// the subvalue multisets returned by the Q instruction set's peek.
type Multiset []any

var _ Canonical = Multiset(nil)

// CanonicalString implements Canonical.
func (m Multiset) CanonicalString() string {
	elems := make([]string, len(m))
	for i, e := range m {
		elems[i] = String(e)
	}
	sort.Strings(elems)
	var b strings.Builder
	b.WriteString("ms{")
	for i, e := range elems {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(e)
	}
	b.WriteByte('}')
	return b.String()
}

// String returns the canonical encoding of v.
//
// Encodings are self-delimiting and type-tagged, so values of different
// dynamic types never collide (e.g. int(1) encodes as "i:1" while the
// string "1" encodes as `s:1:"1"`).
func String(v any) string {
	var b strings.Builder
	encode(&b, v)
	return b.String()
}

// Equal reports whether a and b have identical canonical encodings.
func Equal(a, b any) bool { return String(a) == String(b) }

func encode(b *strings.Builder, v any) {
	if v == nil {
		b.WriteString("nil")
		return
	}
	if c, ok := v.(Canonical); ok {
		b.WriteString("c{")
		b.WriteString(c.CanonicalString())
		b.WriteByte('}')
		return
	}
	switch x := v.(type) {
	case bool:
		if x {
			b.WriteString("b:1")
		} else {
			b.WriteString("b:0")
		}
		return
	case int:
		encodeInt(b, int64(x))
		return
	case int8:
		encodeInt(b, int64(x))
		return
	case int16:
		encodeInt(b, int64(x))
		return
	case int32:
		encodeInt(b, int64(x))
		return
	case int64:
		encodeInt(b, x)
		return
	case uint:
		encodeUint(b, uint64(x))
		return
	case uint8:
		encodeUint(b, uint64(x))
		return
	case uint16:
		encodeUint(b, uint64(x))
		return
	case uint32:
		encodeUint(b, uint64(x))
		return
	case uint64:
		encodeUint(b, x)
		return
	case string:
		encodeString(b, x)
		return
	case []any:
		b.WriteString("l[")
		for i, e := range x {
			if i > 0 {
				b.WriteByte(',')
			}
			encode(b, e)
		}
		b.WriteByte(']')
		return
	case []string:
		b.WriteString("l[")
		for i, e := range x {
			if i > 0 {
				b.WriteByte(',')
			}
			encodeString(b, e)
		}
		b.WriteByte(']')
		return
	case []int:
		b.WriteString("l[")
		for i, e := range x {
			if i > 0 {
				b.WriteByte(',')
			}
			encodeInt(b, int64(e))
		}
		b.WriteByte(']')
		return
	case map[string]any:
		encodeMapReflect(b, reflect.ValueOf(x))
		return
	case map[string]string:
		encodeMapReflect(b, reflect.ValueOf(x))
		return
	case map[string]bool:
		encodeMapReflect(b, reflect.ValueOf(x))
		return
	case map[string]int:
		encodeMapReflect(b, reflect.ValueOf(x))
		return
	}
	encodeReflect(b, reflect.ValueOf(v))
}

func encodeInt(b *strings.Builder, x int64) {
	b.WriteString("i:")
	b.WriteString(strconv.FormatInt(x, 10))
}

func encodeUint(b *strings.Builder, x uint64) {
	b.WriteString("u:")
	b.WriteString(strconv.FormatUint(x, 10))
}

func encodeString(b *strings.Builder, s string) {
	// Length-prefixed so embedded delimiters cannot cause collisions.
	b.WriteString("s:")
	b.WriteString(strconv.Itoa(len(s)))
	b.WriteByte(':')
	b.WriteString(s)
}

func encodeReflect(b *strings.Builder, rv reflect.Value) {
	switch rv.Kind() {
	case reflect.Pointer, reflect.Interface:
		if rv.IsNil() {
			b.WriteString("nil")
			return
		}
		encode(b, rv.Elem().Interface())
	case reflect.Slice, reflect.Array:
		b.WriteString("l[")
		for i := 0; i < rv.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			encode(b, rv.Index(i).Interface())
		}
		b.WriteByte(']')
	case reflect.Map:
		encodeMapReflect(b, rv)
	case reflect.Struct:
		// Tag with the package path so same-named struct types from
		// different packages cannot collide.
		b.WriteString("t:")
		b.WriteString(rv.Type().PkgPath())
		b.WriteByte('.')
		b.WriteString(rv.Type().Name())
		b.WriteByte('{')
		emitted := 0
		for i := 0; i < rv.NumField(); i++ {
			if !rv.Type().Field(i).IsExported() {
				continue
			}
			if emitted > 0 {
				b.WriteByte(',')
			}
			emitted++
			b.WriteString(rv.Type().Field(i).Name)
			b.WriteByte('=')
			encode(b, rv.Field(i).Interface())
		}
		b.WriteByte('}')
	case reflect.Bool:
		if rv.Bool() {
			b.WriteString("b:1")
		} else {
			b.WriteString("b:0")
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		encodeInt(b, rv.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		encodeUint(b, rv.Uint())
	case reflect.String:
		encodeString(b, rv.String())
	default:
		// Unsupported kinds (floats, chans, funcs) get a poisoned tag so
		// that accidental use is loudly visible in fingerprints rather
		// than silently colliding.
		fmt.Fprintf(b, "!unsupported:%s", rv.Kind())
	}
}

func encodeMapReflect(b *strings.Builder, rv reflect.Value) {
	type kv struct{ k, v string }
	pairs := make([]kv, 0, rv.Len())
	iter := rv.MapRange()
	for iter.Next() {
		pairs = append(pairs, kv{
			k: String(iter.Key().Interface()),
			v: String(iter.Value().Interface()),
		})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].k != pairs[j].k {
			return pairs[i].k < pairs[j].k
		}
		return pairs[i].v < pairs[j].v
	})
	b.WriteString("m{")
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteByte('>')
		b.WriteString(p.v)
	}
	b.WriteByte('}')
}

// Hash returns a 64-bit FNV-1a hash of the canonical encoding of v.
// It is a convenience for map keys where the full encoding is too large;
// callers that need collision-freedom should key on String instead.
func Hash(v any) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	s := String(v)
	var h uint64 = offset64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// AppendLenPrefixed appends a length-prefixed copy of s to buf and
// returns the extended slice. The uvarint length prefix makes the
// concatenation of several components self-delimiting, so distinct
// component sequences can never alias — the binary companion of the
// encodeString length prefix. It is the building block of the model
// checker's compact state keys (machine.AppendStateKey).
func AppendLenPrefixed(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// State-key delta encoding.
//
// A model-checker state key (machine.AppendStateKey) is a sequence of
// uvarint-length-prefixed components — one per processor frame and one
// per shared variable. Successive BFS states differ in very few
// components (one stepped frame, at most a couple of touched variables),
// so a key can be stored as a patch against a nearby ancestor key: the
// delta encodes only the components that differ. The encoding is
//
//	uvarint(changed) (uvarint(gap) component)*
//
// where each component is the key's own self-delimiting length-prefixed
// unit, and gap counts the bytes of unchanged components between the
// previous patched component (or the start of the key) and this one.
// Unchanged components are byte-identical in base and key, so one gap
// addresses the same run in both: decoding copies, and comparing
// memcmp-s, each unchanged run whole, and the base's framing is read
// only where a component is patched — never walked. Gaps are
// non-negative, so patch positions are strictly increasing by
// construction. For keys under 128 bytes every gap fits one byte, the
// size a component index would take. The codec is deterministic: equal
// (base, key) pairs always produce byte-identical deltas, and
// ApplyKeyDelta(base, AppendKeyDelta(base, key)) == key exactly. The
// model checker's visited index stores most keys this way.

// keyUnitEnd returns the end offset of the length-prefixed unit starting
// at off, or -1 when the framing is malformed.
func keyUnitEnd(key []byte, off int) int {
	n, w := binary.Uvarint(key[off:])
	if w <= 0 {
		return -1
	}
	if n > uint64(len(key)-off-w) {
		return -1
	}
	return off + w + int(n)
}

// AppendKeyDelta appends to dst a delta encoding key relative to base
// and returns the extended slice. ok is false — and dst is returned
// unchanged — when the two keys are not comparable (different component
// counts or malformed framing); the caller should then store key in
// full. An empty delta (changed=0) is valid and means key == base.
func AppendKeyDelta(dst, base, key []byte) (out []byte, ok bool) {
	// One walk over both framings. The count prefix is reserved as one
	// byte and widened in place only when 128 or more components changed.
	mark := len(dst)
	dst = append(dst, 0)
	var changed uint64
	bo, ko, last := 0, 0, 0
	for bo < len(base) && ko < len(key) {
		be, ke := keyUnitEnd(base, bo), keyUnitEnd(key, ko)
		if be < 0 || ke < 0 {
			return dst[:mark], false
		}
		if !bytes.Equal(base[bo:be], key[ko:ke]) {
			dst = binary.AppendUvarint(dst, uint64(bo-last))
			dst = append(dst, key[ko:ke]...)
			changed++
			last = be
		}
		bo, ko = be, ke
	}
	if bo != len(base) || ko != len(key) {
		// Component counts differ or trailing garbage.
		return dst[:mark], false
	}
	if changed < 0x80 {
		dst[mark] = byte(changed)
		return dst, true
	}
	var count [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(count[:], changed)
	dst = append(dst, count[1:w]...)
	copy(dst[mark+w:], dst[mark+1:len(dst)-(w-1)])
	copy(dst[mark:], count[:w])
	return dst, true
}

// nextPatch decodes the patch at delta[do:] against base, resuming at
// base offset bo (the end of the previous patched component, or 0). The
// unchanged run is base[bo:at], the base component the patch replaces is
// base[at:be], and the replacement is delta[us:ue]. ok is false when the
// patch is truncated, its gap runs past the base, or either component's
// framing is malformed.
func nextPatch(base, delta []byte, bo, do int) (at, be, us, ue int, ok bool) {
	gap, w := binary.Uvarint(delta[do:])
	if w <= 0 || gap > uint64(len(base)-bo) {
		return 0, 0, 0, 0, false
	}
	at = bo + int(gap)
	if be = keyUnitEnd(base, at); be < 0 {
		return 0, 0, 0, 0, false
	}
	us = do + w
	if ue = keyUnitEnd(delta, us); ue < 0 {
		return 0, 0, 0, 0, false
	}
	return at, be, us, ue, true
}

// ApplyKeyDelta appends to dst the key encoded by delta relative to base
// and returns the extended slice. It is the exact inverse of
// AppendKeyDelta for the (base, key) pair that produced delta. A
// malformed delta is an error and leaves dst unchanged.
func ApplyKeyDelta(dst, base, delta []byte) ([]byte, error) {
	changed, w := binary.Uvarint(delta)
	if w <= 0 {
		return dst, fmt.Errorf("canon: key delta: bad count")
	}
	mark := len(dst)
	bo, do := 0, w
	for i := uint64(0); i < changed; i++ {
		at, be, us, ue, ok := nextPatch(base, delta, bo, do)
		if !ok {
			return dst[:mark], fmt.Errorf("canon: key delta: patch %d truncated, malformed or out of range", i)
		}
		dst = append(dst, base[bo:at]...)
		dst = append(dst, delta[us:ue]...)
		bo, do = be, ue
	}
	if do != len(delta) {
		return dst[:mark], fmt.Errorf("canon: key delta: %d trailing bytes", len(delta)-do)
	}
	return append(dst, base[bo:]...), nil
}

// KeyDeltaEqual reports whether applying delta to base yields exactly
// key, without materializing the decoded result. It is the visited
// index's hot dedup comparison: per patch one memcmp of the unchanged
// run and one of the replacement component against the candidate key,
// then one of the unchanged tail. It is false wherever ApplyKeyDelta
// would fail.
func KeyDeltaEqual(base, delta, key []byte) bool {
	changed, w := binary.Uvarint(delta)
	if w <= 0 {
		return false
	}
	bo, do, ko := 0, w, 0
	for ; changed > 0; changed-- {
		at, be, us, ue, ok := nextPatch(base, delta, bo, do)
		if !ok {
			return false
		}
		run, unit := base[bo:at], delta[us:ue]
		if len(key)-ko < len(run)+len(unit) ||
			!bytes.Equal(key[ko:ko+len(run)], run) ||
			!bytes.Equal(key[ko+len(run):ko+len(run)+len(unit)], unit) {
			return false
		}
		ko += len(run) + len(unit)
		bo, do = be, ue
	}
	return do == len(delta) && bytes.Equal(key[ko:], base[bo:])
}

// HashTokens returns a 64-bit FNV-1a hash of a uint64 token stream,
// folding each token a byte at a time in little-endian order. It is the
// token-stream companion of Hash: the interned-signature tables of the
// partition package key their buckets on it and resolve collisions by
// comparing the token sequences themselves, so hash quality affects only
// speed, never correctness.
func HashTokens(tokens []uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for _, t := range tokens {
		for s := 0; s < 64; s += 8 {
			h ^= (t >> s) & 0xff
			h *= prime64
		}
	}
	return h
}
