package machine

import (
	"bytes"
	"fmt"
)

// PrimeFingerprints is the re-encoding oracle for PrimeFromKey: it
// re-encodes every stale component into a privately owned arena, window
// by window, from the machine's own frames and variables, where
// PrimeFromKey trusts a key. It lives behind the test boundary so the
// two primers can be cross-checked (TestPrimeFromKeyMatchesOracle,
// FuzzStateKeyOracle) without a second production path. Exported so the
// external machine_test package can reach it.
func (m *Machine) PrimeFingerprints() {
	// A kept machine is about to parent whole batches of clones: fold
	// its step's frame/variable overrides into privately owned arrays so
	// children inherit clean shared state (an inherited override would
	// force every child's first write through the privatizing fallback).
	// Both groups are privatized even when no override is pending — a
	// kept machine must not share any mutable array with its parent,
	// whose slab generation the checker recycles one level before this
	// machine dies. The copies land in the same recycled slab, so this
	// costs a small memmove, not an allocation.
	m.cowProcs()
	m.cowVars()
	if !m.arenaOwned {
		m.rebuildArena(64)
	}
	for p := range m.frames {
		if m.procCached(p) {
			continue
		}
		m.arenaReserve(48)
		start := len(m.fpArena)
		m.fpArena = append(m.fpArena, 0) // length-prefix placeholder
		m.fpArena = m.appendProcFP(m.fpArena, p)
		n := int32(len(m.fpArena) - start - 1)
		m.fpArena = fixupLenPrefix(m.fpArena, start+1)
		m.procSpan[p] = fpSpan{off: int32(start) + uvarintLen(n), n: n}
		m.procValid[p>>6] |= 1 << uint(p&63)
		m.fpLive += len(m.fpArena) - start
	}
	for v := range m.varVal {
		if m.varCached(v) {
			continue
		}
		m.arenaReserve(24)
		start := len(m.fpArena)
		m.fpArena = append(m.fpArena, 0) // length-prefix placeholder
		m.fpArena = m.appendVarFP(m.fpArena, v)
		n := int32(len(m.fpArena) - start - 1)
		m.fpArena = fixupLenPrefix(m.fpArena, start+1)
		m.varSpan[v] = fpSpan{off: int32(start) + uvarintLen(n), n: n}
		m.varValid[v>>6] |= 1 << uint(v&63)
		m.fpLive += len(m.fpArena) - start
	}
}

// CheckPrimedAlike primes two clones of m — one from key by PrimeFromKey,
// one by the PrimeFingerprints oracle — and reports the first way they
// differ: their state keys, unpermuted and relabeled by procAt/varAt;
// the key-primed clone's key against key itself; every per-component
// fingerprint; and the unpermuted and relabeled keys of every one-step
// child. key must be m's unpermuted state key. m itself is left
// unprimed (cloning freezes it, as the checker's expansion does).
func CheckPrimedAlike(m *Machine, key []byte, procAt, varAt []int) error {
	byKey, byOracle := m.Clone(), m.Clone()
	byKey.PrimeFromKey(key)
	byOracle.PrimeFingerprints()
	same := func(what string, a, b []byte) error {
		if !bytes.Equal(a, b) {
			return fmt.Errorf("%s: key-primed %q, oracle-primed %q", what, a, b)
		}
		return nil
	}
	keys := func(what string, a, b *Machine) error {
		if err := same(what+" key", a.AppendStateKey(nil, nil, nil), b.AppendStateKey(nil, nil, nil)); err != nil {
			return err
		}
		return same(what+" relabeled key", a.AppendStateKey(nil, procAt, varAt), b.AppendStateKey(nil, procAt, varAt))
	}
	if err := same("primed key", byKey.AppendStateKey(nil, nil, nil), key); err != nil {
		return err
	}
	if err := keys("state", byKey, byOracle); err != nil {
		return err
	}
	for p := 0; p < m.NumProcs(); p++ {
		if err := same(fmt.Sprintf("processor %d fingerprint", p),
			byKey.AppendProcFingerprint(nil, p), byOracle.AppendProcFingerprint(nil, p)); err != nil {
			return err
		}
	}
	for v := 0; v < m.NumVars(); v++ {
		if err := same(fmt.Sprintf("variable %d fingerprint", v),
			byKey.AppendVarFingerprint(nil, v), byOracle.AppendVarFingerprint(nil, v)); err != nil {
			return err
		}
	}
	for p := 0; p < m.NumProcs(); p++ {
		a, b := byKey.Clone(), byOracle.Clone()
		_, errA := a.StepOrSkip(p)
		_, errB := b.StepOrSkip(p)
		if (errA == nil) != (errB == nil) {
			return fmt.Errorf("child %d: step errors differ: %v vs %v", p, errA, errB)
		}
		if errA != nil {
			continue
		}
		if err := keys(fmt.Sprintf("child %d", p), a, b); err != nil {
			return err
		}
	}
	return nil
}
