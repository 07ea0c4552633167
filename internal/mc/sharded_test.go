package mc

import (
	"sync/atomic"
	"testing"

	"simsym/internal/system"
)

// TestShardedBudgetMidLevelDeterministic pins behavior the level
// pipeline must preserve: when MaxStates lands in the middle of a BFS
// level under parallel expansion and staging, the run stops at exactly
// the budget with the exact same partial result as the sequential check,
// run after run. spinForever's frontier widens level over level, so a
// budget of 97 (prime, far from any level boundary) is guaranteed to
// land mid-level.
func TestShardedBudgetMidLevelDeterministic(t *testing.T) {
	factory := factoryFor(t, system.Fig1(), system.InstrS, spinForever)
	base := Options{MaxStates: 97, Partial: true}

	seq, err := Check(factory, base)
	if err != nil {
		t.Fatal(err)
	}
	if seq.StatesExplored != 97 || seq.Complete || seq.Exhausted != "states" {
		t.Fatalf("sequential baseline off: %+v", seq)
	}

	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"par2", Options{MaxStates: 97, Partial: true, Workers: 2}},
		{"par4", Options{MaxStates: 97, Partial: true, Workers: 4}},
		{"par4+spill", Options{MaxStates: 97, Partial: true, Workers: 4, HotIndexBytes: 1}},
		{"seq+spill", Options{MaxStates: 97, Partial: true, Workers: 1, HotIndexBytes: 1}},
	} {
		o := mode.opts
		if o.HotIndexBytes > 0 {
			o.SpillDir = t.TempDir()
		}
		for run := 0; run < 3; run++ {
			res, err := Check(factory, o)
			if err != nil {
				t.Fatalf("%s run %d: %v", mode.name, run, err)
			}
			assertIdentical(t, seq, res, mode.name)
			if res.StatesExplored != 97 {
				t.Fatalf("%s run %d explored %d states, want exactly 97", mode.name, run, res.StatesExplored)
			}
		}
	}
}

// TestShardedStatsConsistent: the 8-shard index's delta/shard telemetry
// must be internally consistent and identical to the single-shard
// index's on a space both close completely.
func TestShardedStatsConsistent(t *testing.T) {
	factory := factoryFor(t, system.Fig1(), system.InstrL, lockClaim)
	seq, err := Check(factory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := Check(factory, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, seq, sh, "sharded stats run")
	if sh.Stats.Shards != 8 {
		t.Errorf("Stats.Shards = %d, want 8", sh.Stats.Shards)
	}
	if seq.Stats.Shards != 1 {
		t.Errorf("sequential Stats.Shards = %d, want 1", seq.Stats.Shards)
	}
	for _, s := range []*Result{seq, sh} {
		if s.Stats.StoredKeyBytes > s.Stats.LogicalKeyBytes {
			t.Errorf("stored %d > logical %d key bytes", s.Stats.StoredKeyBytes, s.Stats.LogicalKeyBytes)
		}
		if s.Stats.DeltaStates == 0 && s.StatesExplored > 2 {
			t.Errorf("no states delta-encoded across %d states; ancestor wiring looks dead", s.StatesExplored)
		}
	}
	// Storage decisions are made in canonical commit order at every
	// worker count, so even the compression telemetry must agree exactly.
	if seq.Stats.DeltaStates != sh.Stats.DeltaStates ||
		seq.Stats.StoredKeyBytes != sh.Stats.StoredKeyBytes ||
		seq.Stats.LogicalKeyBytes != sh.Stats.LogicalKeyBytes {
		t.Errorf("storage telemetry diverged:\nseq %+v\nsharded %+v", seq.Stats, sh.Stats)
	}
}

// TestShardedSpillDegradesNotCorrupts: forcing the entire visited set
// through the spill tier must change residency only — verdict, witness,
// and every counter stay identical, and SpilledBytes reports the disk
// traffic.
func TestShardedSpillDegradesNotCorrupts(t *testing.T) {
	factory := factoryFor(t, crossedLocks(), system.InstrL, spinLockBoth)
	seq, err := Check(factory, Options{StuckBad: NotAllHalted})
	if err != nil {
		t.Fatal(err)
	}
	spill, err := Check(factory, Options{
		StuckBad:      NotAllHalted,
		Workers:       4,
		HotIndexBytes: 1,
		SpillDir:      t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, seq, spill, "spill-forced vs sequential")
	if spill.Violation == nil {
		t.Fatal("crossed-locks deadlock must survive the spill tier")
	}
}

// TestProgressSnapshotsConsistentUnderParallel audits the Stats/Progress
// surface for torn reads (the satellite-3 bugfix): every snapshot the
// Progress callback observes must be internally consistent — counters
// monotone, Transitions never behind StatesExplored-1, no regression
// between snapshots — while parallel expansion and staging goroutines
// are live. Run under -race (CI does), this also pins that snapshots are
// delivered from the coordinating goroutine only, between phases: the
// engine's design makes torn reads impossible by construction, and this
// test plus the race detector keeps it that way.
func TestProgressSnapshotsConsistentUnderParallel(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"par4", Options{Workers: 4}},
		// Three workers over four shards: one stager owns two shards.
		{"shard4", Options{Workers: 3}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			var calls atomic.Int64
			var lastStates, lastTrans int64
			o := mode.opts
			o.MaxStates = 3000
			o.Partial = true
			o.ProgressEvery = 64
			o.Progress = func(s Stats) {
				calls.Add(1)
				if int64(s.StatesExplored) < lastStates {
					t.Errorf("StatesExplored regressed: %d after %d", s.StatesExplored, lastStates)
				}
				if s.Transitions < lastTrans {
					t.Errorf("Transitions regressed: %d after %d", s.Transitions, lastTrans)
				}
				// A torn read would show transitions lagging the states
				// they discovered (every non-root state is found by a
				// counted transition).
				if s.Transitions < int64(s.StatesExplored)-1 {
					t.Errorf("snapshot torn: %d transitions < %d states - 1", s.Transitions, s.StatesExplored)
				}
				lastStates, lastTrans = int64(s.StatesExplored), s.Transitions
			}
			res, err := Check(factoryFor(t, system.Fig1(), system.InstrS, spinForever), o)
			if err != nil {
				t.Fatal(err)
			}
			if res.StatesExplored != 3000 {
				t.Fatalf("explored %d, want 3000", res.StatesExplored)
			}
			if calls.Load() < 2 {
				t.Fatalf("progress fired %d times; need repeated snapshots to audit", calls.Load())
			}
		})
	}
}

// TestMemoryBudgetFiresPromptly pins the capacity-accounting fix at the
// engine level: with an honest estimate the memory budget must trip
// before the footprint meaningfully overshoots the cap (the old
// length-based estimate lagged allocations by whole growth steps), and
// must still return a graceful partial result with work done.
func TestMemoryBudgetFiresPromptly(t *testing.T) {
	const budget = 512 << 10
	res, err := Check(factoryFor(t, system.Fig1(), system.InstrS, spinForever), Options{
		MaxMemBytes: budget,
		Partial:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exhausted != "memory" || res.Complete {
		t.Fatalf("result = %+v, want graceful memory exhaustion", res)
	}
	if res.StatesExplored == 0 {
		t.Error("partial result should carry explored states")
	}
	// The estimate is checked after every push, so the recorded peak can
	// exceed the budget by at most one allocation growth step — doubling
	// in the worst case — never by an unaccounted multiple.
	if res.Stats.PeakMemBytes > 3*budget {
		t.Errorf("peak estimate %d overshot the %d budget by more than one growth step", res.Stats.PeakMemBytes, budget)
	}
}
