package partition

import (
	"fmt"
	"math/rand"
	"testing"
)

// AppendSignature mirrors dfa.Signature as tokens, so the dfa-based
// tests drive the interned token path of FixpointWorklist.
func (d *dfa) AppendSignature(buf []uint64, i int, label func(int) int) []uint64 {
	for _, t := range d.next[i] {
		buf = append(buf, uint64(int64(label(t))))
	}
	return buf
}

func TestSigTableInternsDenseIDs(t *testing.T) {
	var tab SigTable
	seqs := [][]uint64{
		{},
		{1},
		{1, 0},
		{0, 1},
		{1, 0, 0},
		{^uint64(0)},
	}
	for want, s := range seqs {
		if got := tab.Intern(s); got != want {
			t.Errorf("Intern(%v) = %d, want %d", s, got, want)
		}
	}
	if tab.Len() != len(seqs) {
		t.Errorf("Len = %d, want %d", tab.Len(), len(seqs))
	}
	// Re-interning returns the same ids, in any order.
	for want := len(seqs) - 1; want >= 0; want-- {
		if got := tab.Intern(seqs[want]); got != want {
			t.Errorf("re-Intern(%v) = %d, want %d", seqs[want], got, want)
		}
		if got := tab.Tokens(want); len(got) != len(seqs[want]) {
			t.Errorf("Tokens(%d) = %v, want %v", want, got, seqs[want])
		}
	}
}

func TestSigTableCopiesCallerBuffer(t *testing.T) {
	var tab SigTable
	buf := []uint64{7, 8, 9}
	id := tab.Intern(buf)
	buf[0] = 99 // caller reuses the buffer
	if got := tab.Intern([]uint64{7, 8, 9}); got != id {
		t.Errorf("mutating the caller buffer changed the interned tokens: got %d, want %d", got, id)
	}
	if got := tab.Intern(buf); got == id {
		t.Error("distinct tokens interned to the same id")
	}
}

func TestSigTableReset(t *testing.T) {
	var tab SigTable
	tab.Intern([]uint64{1, 2})
	tab.Intern([]uint64{3})
	tab.Reset()
	if tab.Len() != 0 {
		t.Fatalf("Len after Reset = %d", tab.Len())
	}
	if got := tab.Intern([]uint64{3}); got != 0 {
		t.Errorf("first Intern after Reset = %d, want 0", got)
	}
}

func TestSortTokenPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		m := rng.Intn(40)
		toks := make([]uint64, 2*m)
		for i := range toks {
			toks[i] = uint64(rng.Intn(5))
		}
		SortTokenPairs(toks)
		for i := 2; i < len(toks); i += 2 {
			a0, a1 := toks[i-2], toks[i-1]
			b0, b1 := toks[i], toks[i+1]
			if a0 > b0 || (a0 == b0 && a1 > b1) {
				t.Fatalf("trial %d: pairs out of order at %d: %v", trial, i, toks)
			}
		}
	}
}

func randomDFA(rng *rand.Rand, n int) *dfa {
	accept := make([]bool, n)
	next := make([][]int, n)
	for s := 0; s < n; s++ {
		accept[s] = rng.Intn(2) == 0
		next[s] = []int{rng.Intn(n), rng.Intn(n)}
	}
	return newDFA(accept, next)
}

// stringOnlyDFA hides the TokenStructure implementation of dfa (the
// field is deliberately not embedded, so AppendSignature is not
// promoted), forcing the string-interning fallback of the worklist
// driver.
type stringOnlyDFA struct{ d *dfa }

func (s stringOnlyDFA) Len() int                                { return s.d.Len() }
func (s stringOnlyDFA) InitKey(i int) string                    { return s.d.InitKey(i) }
func (s stringOnlyDFA) Signature(i int, l func(int) int) string { return s.d.Signature(i, l) }
func (s stringOnlyDFA) Dependents(i int) []int                  { return s.d.Dependents(i) }

// TestTokenPathMatchesStringFallback cross-checks the interned token
// path against the string fallback and the naive string oracle.
func TestTokenPathMatchesStringFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		d := randomDFA(rng, 2+rng.Intn(60))
		if _, ok := any(d).(TokenStructure); !ok {
			t.Fatal("dfa should implement TokenStructure")
		}
		if _, ok := any(stringOnlyDFA{d: d}).(TokenStructure); ok {
			t.Fatal("stringOnlyDFA must not implement TokenStructure")
		}
		tok, err := FixpointWorklist(d)
		if err != nil {
			t.Fatal(err)
		}
		str, err := FixpointWorklist(stringOnlyDFA{d: d})
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := FixpointNaive(d)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(tok.Labels()) != fmt.Sprint(str.Labels()) {
			t.Fatalf("trial %d: token %v != string %v", trial, tok.Labels(), str.Labels())
		}
		if !SameRelation(tok, oracle) {
			t.Fatalf("trial %d: interned relation differs from naive oracle", trial)
		}
	}
}
