package machine_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"simsym/internal/machine"
	"simsym/internal/system"
)

// TestPrimeFromKeyMatchesOracle is the unit form of FuzzStateKeyOracle's
// priming check: over every shipped topology and instruction set, with
// narrow and widened (≥128-byte) initial states, a machine primed from
// its own key matches one primed by the re-encoding oracle — keys plain
// and relabeled, component fingerprints, and every one-step child's
// keys — at several points of a random schedule.
func TestPrimeFromKeyMatchesOracle(t *testing.T) {
	wideSeen := false
	for topo := uint8(0); topo < 6; topo++ {
		for _, instr := range []system.InstrSet{system.InstrS, system.InstrL, system.InstrQ} {
			for _, wide := range []bool{false, true} {
				rng := rand.New(rand.NewSource(int64(topo)*7 + int64(instr)))
				s := fuzzTopology(t, topo)
				if wide {
					s = widenInits(s)
				}
				prog, err := machine.RandomProgram(rng, s.Names, instr, 2+rng.Intn(6))
				if err != nil {
					t.Fatal(err)
				}
				procAt, varAt := rng.Perm(s.NumProcs()), rng.Perm(s.NumVars())
				m, err := machine.New(s, instr, prog)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i <= 40; i++ {
					if i%10 == 0 {
						key := m.Clone().AppendStateKey(nil, nil, nil)
						wideSeen = wideSeen || hasWideWindow(key)
						if err := machine.CheckPrimedAlike(m, key, procAt, varAt); err != nil {
							t.Fatalf("topology %d, %v, wide %v, step %d: %v", topo, instr, wide, i, err)
						}
					}
					if _, err := m.StepOrSkip(rng.Intn(s.NumProcs())); err != nil {
						break
					}
				}
			}
		}
	}
	if !wideSeen {
		t.Error("no key had a window of 128 bytes or more; the widened inits did not reach the keys")
	}
}

// hasWideWindow reports whether any component window of key needs a
// multi-byte length prefix.
func hasWideWindow(key []byte) bool {
	for len(key) > 0 {
		n, w := binary.Uvarint(key)
		if w <= 0 || int(n) > len(key)-w {
			return false
		}
		if w > 1 {
			return true
		}
		key = key[w+int(n):]
	}
	return false
}

// TestPrimeFromKeyFraming pins the prefix walk on windows no encoding
// produces today — empty ones (a bare 0x00 prefix) — next to a 200-byte
// window with a two-byte prefix: the primed machine must serve every
// window back exactly, plain and relabeled, and a key whose prefixes do
// not frame exactly its own length must panic rather than prime.
func TestPrimeFromKeyFraming(t *testing.T) {
	bl := machine.NewBuilder()
	bl.Halt()
	prog, err := bl.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := system.Fig2()
	np, nv := s.NumProcs(), s.NumVars()
	windows := make([][]byte, np+nv)
	for i := range windows {
		switch i % 3 {
		case 0:
			windows[i] = nil
		case 1:
			windows[i] = []byte(strings.Repeat(string(rune('a'+i)), 200))
		default:
			windows[i] = []byte{byte(i), 'x'}
		}
	}
	var key []byte
	for _, w := range windows {
		key = binary.AppendUvarint(key, uint64(len(w)))
		key = append(key, w...)
	}
	m, err := machine.New(s, system.InstrL, prog)
	if err != nil {
		t.Fatal(err)
	}
	m.PrimeFromKey(key)
	if got := m.AppendStateKey(nil, nil, nil); !bytes.Equal(got, key) {
		t.Fatalf("primed key %q, want %q", got, key)
	}
	for p := 0; p < np; p++ {
		if got := m.AppendProcFingerprint(nil, p); !bytes.Equal(got, windows[p]) {
			t.Errorf("processor %d window %q, want %q", p, got, windows[p])
		}
	}
	for v := 0; v < nv; v++ {
		if got := m.AppendVarFingerprint(nil, v); !bytes.Equal(got, windows[np+v]) {
			t.Errorf("variable %d window %q, want %q", v, got, windows[np+v])
		}
	}
	procAt, varAt := make([]int, np), make([]int, nv)
	var want []byte
	for i := range procAt {
		procAt[i] = np - 1 - i
		want = binary.AppendUvarint(want, uint64(len(windows[procAt[i]])))
		want = append(want, windows[procAt[i]]...)
	}
	for i := range varAt {
		varAt[i] = nv - 1 - i
		want = binary.AppendUvarint(want, uint64(len(windows[np+varAt[i]])))
		want = append(want, windows[np+varAt[i]]...)
	}
	if got := m.AppendStateKey(nil, procAt, varAt); !bytes.Equal(got, want) {
		t.Errorf("relabeled key %q, want %q", got, want)
	}

	for name, bad := range map[string][]byte{
		"truncated":      key[:len(key)-1],
		"trailing bytes": append(append([]byte(nil), key...), 0),
		"too few":        key[:3],
		"overrun prefix": append([]byte{0xff, 0x01}, key[2:]...),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s key: PrimeFromKey did not panic", name)
				}
			}()
			fresh, err := machine.New(s, system.InstrL, prog)
			if err != nil {
				t.Fatal(err)
			}
			fresh.PrimeFromKey(bad)
		}()
	}
}
