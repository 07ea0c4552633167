package adversary

import (
	"math/rand"
	"testing"

	"simsym/internal/system"
)

// TestReplayDeterminism is the seeded-replay sweep: for every shipped
// adversary/fault combination, two fresh runs from the same seeds must
// produce byte-identical schedule prefixes, fault logs, and final
// fingerprints, and replaying the recorded trace must reproduce the run
// exactly. CI runs this under -race -count=2 (go test -run Replay), so
// any hidden nondeterminism — map iteration in a decision path, shared
// RNG state, a data race — shows up as a Diff.
func TestReplayDeterminism(t *testing.T) {
	diningSpec := func(spec Spec) func(t *testing.T) (*Harness, error) {
		return func(t *testing.T) (*Harness, error) {
			sys, err := system.DiningFlipped(4)
			if err != nil {
				return nil, err
			}
			h, err := NewDiningHarness(sys, 2, Shuffled(rand.New(rand.NewSource(13)), sys.NumProcs()))
			if err != nil {
				return nil, err
			}
			if spec.Enabled() {
				h.Faults = NewFaults(spec, sys.NumProcs(), sys.NumVars())
			}
			h.MaxSlots = 4000
			return h, nil
		}
	}
	cases := []struct {
		name  string
		build func(t *testing.T) (*Harness, error)
	}{
		{"dining/shuffled/none", diningSpec(Spec{})},
		{"dining/shuffled/crash", diningSpec(Spec{CrashRate: 0.02, MaxCrashes: 1, CrashSeed: 13})},
		{"dining/shuffled/stall", diningSpec(Spec{StallRate: 0.05, StallLen: 7, StallSeed: 13})},
		{"dining/shuffled/lockdrop", diningSpec(Spec{DropRate: 0.02, DropSeed: 13})},
		{"dining/shuffled/all", diningSpec(Spec{
			CrashRate: 0.01, MaxCrashes: 1, CrashSeed: 13,
			StallRate: 0.03, StallLen: 5, StallSeed: 14,
			DropRate: 0.01, DropSeed: 15,
		})},
		{"select-q/uniform/crash", func(t *testing.T) (*Harness, error) {
			sys := system.Fig2()
			h, err := NewSelectHarness(sys, system.InstrQ, system.SchedFair, Uniform(rand.New(rand.NewSource(7)), sys.NumProcs()))
			if err != nil {
				return nil, err
			}
			h.Faults = NewFaults(Spec{CrashRate: 0.01, MaxCrashes: 1, CrashSeed: 7}, sys.NumProcs(), sys.NumVars())
			h.MaxSlots = 4000
			return h, nil
		}},
		{"select-s/flp/none", func(t *testing.T) (*Harness, error) {
			h, err := NewSelectHarness(markedFig1(), system.InstrS, system.SchedBoundedFair, NewFLP())
			if err != nil {
				return nil, err
			}
			h.MaxSlots = 1000
			return h, nil
		}},
		{"select-s/kbounded-flp/stall", func(t *testing.T) (*Harness, error) {
			sys := markedFig1()
			enf, err := NewKBounded(NewFLP(), sys.NumProcs(), 4)
			if err != nil {
				return nil, err
			}
			h, err := NewSelectHarness(sys, system.InstrS, system.SchedBoundedFair, enf)
			if err != nil {
				return nil, err
			}
			h.Faults = NewFaults(Spec{StallRate: 0.1, StallLen: 3, StallSeed: 2}, sys.NumProcs(), sys.NumVars())
			h.MaxSlots = 2000
			return h, nil
		}},
		{"algorithm3/shuffled/crash", func(t *testing.T) (*Harness, error) {
			fam := markedRingFamily(t)
			h, err := NewAlgorithm3Harness(fam, 1, Shuffled(rand.New(rand.NewSource(19)), fam.Members[1].NumProcs()))
			if err != nil {
				return nil, err
			}
			h.Faults = NewFaults(Spec{CrashRate: 0.02, MaxCrashes: 1, CrashSeed: 19}, fam.Members[1].NumProcs(), fam.Members[1].NumVars())
			h.MaxSlots = 3000
			return h, nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func() *Result {
				h, err := tc.build(t)
				if err != nil {
					t.Fatal(err)
				}
				res, err := h.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()
			if d := a.Diff(b); d != "" {
				t.Fatalf("two same-seed runs diverged: %s", d)
			}
			h, err := tc.build(t)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := h.Replay(a)
			if err != nil {
				t.Fatal(err)
			}
			if d := a.Diff(rep); d != "" {
				t.Fatalf("trace replay diverged: %s", d)
			}
		})
	}
}

// TestSeedingLayout pins the one seed-to-streams rule: the schedule
// stream draws from seed and the crash, stall and drop streams from
// seed+1, seed+2 and seed+3.
func TestSeedingLayout(t *testing.T) {
	sys, err := system.DiningFlipped(4)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 5
	for _, kind := range []string{"", "uniform", "shuffled"} {
		seeding, err := NewSeeding(kind, "crash,stall,lockdrop")
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewDiningHarness(sys, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		seeding.Install(got, seed)

		want, err := NewDiningHarness(sys, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		if kind == "shuffled" {
			want.Sched = Shuffled(rng, sys.NumProcs())
		} else {
			want.Sched = Uniform(rng, sys.NumProcs())
		}
		spec, err := ParseSpec("crash,stall,lockdrop", 0)
		if err != nil {
			t.Fatal(err)
		}
		spec.CrashSeed, spec.StallSeed, spec.DropSeed = seed+1, seed+2, seed+3
		want.Faults = NewFaults(spec, sys.NumProcs(), sys.NumVars())

		a, err := got.Run()
		if err != nil {
			t.Fatal(err)
		}
		b, err := want.Run()
		if err != nil {
			t.Fatal(err)
		}
		if d := a.Diff(b); d != "" {
			t.Errorf("kind %q: seeded run diverged from the documented layout: %s", kind, d)
		}
		if len(a.FaultLog) == 0 {
			t.Errorf("kind %q: no faults fired; the layout is not exercised", kind)
		}
	}

	seeding, err := NewSeeding("", "")
	if err != nil {
		t.Fatal(err)
	}
	h := &Harness{Sys: sys, Faults: NewReplayer(nil)}
	seeding.Install(h, seed)
	if h.Faults != nil || h.Sched == nil {
		t.Errorf("no fault classes: Faults = %v, Sched = %v; want nil fault layer and a scheduler", h.Faults, h.Sched)
	}
	if _, err := NewSeeding("round-robin", ""); err == nil {
		t.Error("unknown schedule kind accepted")
	}
	if _, err := NewSeeding("", "gremlins"); err == nil {
		t.Error("unknown fault class accepted")
	}
}
