package canon

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// buildKey assembles a state key from components the way
// machine.AppendStateKey does: uvarint-length-prefixed concatenation.
func buildKey(components []string) []byte {
	var buf []byte
	for _, c := range components {
		buf = AppendLenPrefixed(buf, c)
	}
	return buf
}

func TestKeyDeltaRoundTrip(t *testing.T) {
	base := buildKey([]string{"pc=0", "pc=1,halted", "x=taken", "", "lock:2"})
	cases := [][]string{
		{"pc=0", "pc=1,halted", "x=taken", "", "lock:2"},         // identical
		{"pc=7", "pc=1,halted", "x=taken", "", "lock:2"},         // first changed
		{"pc=0", "pc=1,halted", "x=taken", "", "lock:0"},         // last changed
		{"pc=0", "pc=2", "x=free", "", "lock:2"},                 // middle pair
		{"a", "b", "c", "d", "e"},                                // all changed
		{"pc=0", "pc=1,halted", "x=taken", "nonempty", "lock:2"}, // empty -> set
	}
	for i, comps := range cases {
		key := buildKey(comps)
		delta, ok := AppendKeyDelta(nil, base, key)
		if !ok {
			t.Fatalf("case %d: delta should be encodable", i)
		}
		back, err := ApplyKeyDelta(nil, base, delta)
		if err != nil {
			t.Fatalf("case %d: apply: %v", i, err)
		}
		if !bytes.Equal(back, key) {
			t.Errorf("case %d: round trip mismatch: %q vs %q", i, back, key)
		}
		if !KeyDeltaEqual(base, delta, key) {
			t.Errorf("case %d: KeyDeltaEqual should accept the round trip", i)
		}
		// The streaming comparison must reject every other case's key.
		for j, other := range cases {
			if j == i {
				continue
			}
			if KeyDeltaEqual(base, delta, buildKey(other)) {
				t.Errorf("case %d: delta must not match case %d's key", i, j)
			}
		}
	}
}

func TestKeyDeltaDeterministic(t *testing.T) {
	base := buildKey([]string{"a", "bb", "ccc"})
	key := buildKey([]string{"a", "xx", "ccc"})
	d1, ok1 := AppendKeyDelta(nil, base, key)
	d2, ok2 := AppendKeyDelta(nil, base, key)
	if !ok1 || !ok2 || !bytes.Equal(d1, d2) {
		t.Fatalf("delta encoding must be deterministic: %v %v", d1, d2)
	}
}

func TestKeyDeltaIncomparable(t *testing.T) {
	base := buildKey([]string{"a", "b", "c"})
	// Different component count: not delta-encodable.
	if _, ok := AppendKeyDelta(nil, base, buildKey([]string{"a", "b"})); ok {
		t.Error("shorter key must not be delta-encodable")
	}
	if _, ok := AppendKeyDelta(nil, base, buildKey([]string{"a", "b", "c", "d"})); ok {
		t.Error("longer key must not be delta-encodable")
	}
	// Malformed framing: a truncated length prefix.
	if _, ok := AppendKeyDelta(nil, base, []byte{0xff}); ok {
		t.Error("malformed key must not be delta-encodable")
	}
	if _, ok := AppendKeyDelta(nil, []byte{0xff}, base); ok {
		t.Error("malformed base must not be delta-encodable")
	}
	// dst must come back unchanged on failure.
	dst := []byte("prefix")
	out, ok := AppendKeyDelta(dst, base, buildKey([]string{"a"}))
	if ok || !bytes.Equal(out, []byte("prefix")) {
		t.Errorf("failed encode must leave dst unchanged, got %q", out)
	}
}

func TestApplyKeyDeltaRejectsGarbage(t *testing.T) {
	base := buildKey([]string{"a", "b"}) // 01 'a' 01 'b'
	for _, bad := range [][]byte{
		{},             // missing count
		{0x80},         // truncated count
		{2, 0},         // count 2 but one truncated patch (gap, no component)
		{2, 0, 1, 'x'}, // count 2 but only one patch
		{1, 9, 1, 'x'}, // gap 9 runs past the 4-byte base
		{1, 4, 1, 'x'}, // gap lands on the base's end: no component to patch
		{1, 1, 1, 'x'}, // gap lands mid-component: base framing runs past its end
		{1, 0, 0xff},   // malformed component
		{1, 0, 3, 'x'}, // component length runs past the delta
		append(append([]byte{1, 0}, AppendLenPrefixed(nil, "z")...), 0x7), // trailing bytes
		{0, 0}, // trailing bytes after an empty delta
	} {
		if _, err := ApplyKeyDelta(nil, base, bad); err == nil {
			t.Errorf("delta %v should be rejected", bad)
		}
		if KeyDeltaEqual(base, bad, base) {
			t.Errorf("KeyDeltaEqual must reject delta %v", bad)
		}
	}
	// The gap addresses base bytes: a patch of the second component
	// skips the first component's two bytes.
	delta, ok := AppendKeyDelta(nil, base, buildKey([]string{"a", "zz"}))
	if want := []byte{1, 2, 2, 'z', 'z'}; !ok || !bytes.Equal(delta, want) {
		t.Errorf("delta = %v (ok=%v), want %v", delta, ok, want)
	}
}

// TestKeyDeltaWideCount: when 128 or more components change, the
// one-byte count slot is widened in place to the two-byte uvarint and the
// patches behind it stay intact.
func TestKeyDeltaWideCount(t *testing.T) {
	for _, n := range []int{127, 128, 300} {
		baseC, keyC := make([]string, n), make([]string, n)
		for i := range baseC {
			baseC[i], keyC[i] = fmt.Sprintf("b%d", i), fmt.Sprintf("k%d", i)
		}
		base, key := buildKey(baseC), buildKey(keyC)
		delta, ok := AppendKeyDelta([]byte("pre"), base, key)
		if !ok || !bytes.HasPrefix(delta, []byte("pre")) {
			t.Fatalf("n=%d: encode failed or clobbered dst: %v", n, ok)
		}
		delta = delta[3:]
		if got, w := binary.Uvarint(delta); w <= 0 || got != uint64(n) {
			t.Fatalf("n=%d: count prefix decodes to %d (width %d)", n, got, w)
		}
		back, err := ApplyKeyDelta(nil, base, delta)
		if err != nil || !bytes.Equal(back, key) {
			t.Fatalf("n=%d: round trip failed: %v", n, err)
		}
		if !KeyDeltaEqual(base, delta, key) || KeyDeltaEqual(base, delta, base) {
			t.Fatalf("n=%d: streaming comparison disagrees with the round trip", n)
		}
	}
}

// TestKeyDeltaQuick fuzzes the codec with random component vectors: the
// round trip must be exact and the streaming comparison must agree with
// the materialized comparison on both equal and perturbed keys.
func TestKeyDeltaQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		n := 1 + rng.Intn(12)
		baseC := make([]string, n)
		keyC := make([]string, n)
		for i := range baseC {
			baseC[i] = fmt.Sprintf("c%d=%d", i, rng.Intn(4))
			if rng.Intn(3) == 0 {
				keyC[i] = fmt.Sprintf("c%d=%d!", i, rng.Intn(4))
			} else {
				keyC[i] = baseC[i]
			}
		}
		base, key := buildKey(baseC), buildKey(keyC)
		delta, ok := AppendKeyDelta(nil, base, key)
		if !ok {
			t.Fatalf("iter %d: same-arity keys must be encodable", iter)
		}
		back, err := ApplyKeyDelta(nil, base, delta)
		if err != nil || !bytes.Equal(back, key) {
			t.Fatalf("iter %d: round trip failed: %v", iter, err)
		}
		if !KeyDeltaEqual(base, delta, key) {
			t.Fatalf("iter %d: streaming equal disagreed on equal keys", iter)
		}
		// Perturb one component of key: the comparison must fail.
		j := rng.Intn(n)
		mut := append([]string(nil), keyC...)
		mut[j] += "#"
		if KeyDeltaEqual(base, delta, buildKey(mut)) {
			t.Fatalf("iter %d: streaming equal accepted a perturbed key", iter)
		}
	}
}

// keyDeltaAgrees checks KeyDeltaEqual against materialize-and-compare:
// it must hold exactly when ApplyKeyDelta succeeds and yields key.
func keyDeltaAgrees(t *testing.T, base, delta, key []byte) {
	t.Helper()
	got, err := ApplyKeyDelta(nil, base, delta)
	want := err == nil && bytes.Equal(got, key)
	if eq := KeyDeltaEqual(base, delta, key); eq != want {
		t.Fatalf("KeyDeltaEqual(%v, %v, %v) = %v; apply gave %v, %v", base, delta, key, eq, got, err)
	}
}

// FuzzKeyDelta drives the codec two ways. On component vectors built
// from the inputs (the base split at zero bytes, the key patching the
// components the second input selects) the round trip is exact and the
// streaming comparison agrees with the materialized one on the key and
// on perturbed keys. On the raw inputs as arbitrary base, delta and key
// nothing panics, an encodable pair round-trips, and KeyDeltaEqual is
// false wherever ApplyKeyDelta fails or yields another key.
func FuzzKeyDelta(f *testing.F) {
	base := buildKey([]string{"a", "b"})
	f.Add(base, []byte{1, 2, 2, 'z', 'z'}, buildKey([]string{"a", "zz"}))
	f.Add(base, []byte{1, 9, 1, 'x'}, base)
	f.Add(base, []byte{2, 0}, base)
	f.Add([]byte("pc=0\x00pc=1\x00lock"), []byte{0, 1, 0}, []byte("!"))
	f.Fuzz(func(t *testing.T, a, b, c []byte) {
		keyDeltaAgrees(t, a, b, c)
		if d, ok := AppendKeyDelta(nil, a, c); ok {
			if back, err := ApplyKeyDelta(nil, a, d); err != nil || !bytes.Equal(back, c) {
				t.Fatalf("raw pair (%v, %v): round trip gave %v, %v", a, c, back, err)
			}
		}

		baseC := bytes.Split(a, []byte{0})
		keyC := make([][]byte, len(baseC))
		for i := range baseC {
			keyC[i] = baseC[i]
			if i < len(b) && b[i]&1 == 1 {
				keyC[i] = append(append([]byte(nil), c...), b[i])
			}
		}
		var base, key []byte
		for i := range baseC {
			base = AppendLenPrefixed(base, string(baseC[i]))
			key = AppendLenPrefixed(key, string(keyC[i]))
		}
		delta, ok := AppendKeyDelta(nil, base, key)
		if !ok {
			t.Fatalf("same-arity keys must be encodable: %v, %v", base, key)
		}
		back, err := ApplyKeyDelta(nil, base, delta)
		if err != nil || !bytes.Equal(back, key) {
			t.Fatalf("round trip of %v against %v gave %v, %v", key, base, back, err)
		}
		if !KeyDeltaEqual(base, delta, key) {
			t.Fatalf("streaming equal rejected its own key %v", key)
		}
		keyDeltaAgrees(t, base, delta, base)
		keyDeltaAgrees(t, base, delta, key[:len(key)-1])
		keyDeltaAgrees(t, base, delta, append(key[:len(key):len(key)], 0))
		for _, x := range b {
			mut := append([]byte(nil), key...)
			mut[int(x)%len(mut)] ^= 1 + x>>1
			keyDeltaAgrees(t, base, delta, mut)
		}
		keyDeltaAgrees(t, base, c, key)
		keyDeltaAgrees(t, key, delta, base)
	})
}
