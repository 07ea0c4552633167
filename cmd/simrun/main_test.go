package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"simsym/internal/adversary"
	"simsym/internal/runcfg"
	"simsym/internal/server"
	"simsym/internal/sysdsl"
	"simsym/internal/system"
)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("simrun %v: %v", args, err)
	}
	return out.String()
}

func wantAll(t *testing.T, got string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestDecideAndRunQ(t *testing.T) {
	wantAll(t, runOK(t, "-gen", "fig2", "-instr", "q", "-runs", "2"), "solvable: true", "winner p3")
}

func TestDecideUnsolvable(t *testing.T) {
	wantAll(t, runOK(t, "-gen", "ring 4", "-instr", "l"), "solvable: false")
}

func TestDecideGeneralSchedules(t *testing.T) {
	wantAll(t, runOK(t, "-gen", "fig2", "-instr", "q", "-sched", "general"), "solvable: false")
}

func TestVerifyFlagOnL(t *testing.T) {
	wantAll(t, runOK(t, "-gen", "fig1", "-instr", "l", "-runs", "1", "-verify", "-max-states", "600000"),
		"verification: safe")
}

func TestFiveTableDeadlocks(t *testing.T) {
	wantAll(t, runOK(t, "-kind", "dining", "-gen", "dining 5"), "DEADLOCK")
}

func TestFlippedSixWorks(t *testing.T) {
	wantAll(t, runOK(t, "-kind", "dining", "-gen", "dining-flipped 6", "-meals", "2", "-rounds", "200"),
		"round-robin meals: [2 2 2 2 2 2]")
}

func TestFlippedFourChecked(t *testing.T) {
	wantAll(t, runOK(t, "-kind", "dining", "-gen", "dining-flipped 4", "-verify", "-max-states", "60000"),
		"exclusion holds", "no deadlock found")
}

func TestRandomized(t *testing.T) {
	wantAll(t, runOK(t, "-kind", "dining", "-gen", "dining 5", "-random", "-rounds", "500"),
		"Lehmann-Rabin on 5 philosophers")
}

func TestBadTable(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-kind", "dining", "-gen", "dining-flipped 5"}, &out); err == nil {
		t.Error("odd flipped table should fail")
	}
}

func TestArgErrors(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "fig2.sys")
	if err := os.WriteFile(spec, []byte(sysdsl.Serialize(system.Fig2())), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-gen", "fig1", "-instr", "zzz"},
		{"-gen", "fig1", "-sched", "zzz"},
		{"-kind", "zzz", "-gen", "fig1"},
		{"-spec", spec, "-gen", "fig1"},
		nil,
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("simrun %q should fail", args)
		}
	}
	// The same spec file alone is accepted.
	wantAll(t, runOK(t, "-spec", spec, "-runs", "1"), "solvable: true")
}

// wantReplay runs a fault run with -replay, whose last four arguments
// are "-faults", the classes, "-seed" and the seed, and checks that the
// run is reported and replays byte-identically.
func wantReplay(t *testing.T, args ...string) {
	t.Helper()
	seed := args[len(args)-1]
	faults := args[len(args)-3]
	wantAll(t, runOK(t, append(args, "-replay")...),
		fmt.Sprintf("fault run (seed %s, faults %s)", seed, faults), "replay: byte-identical")
}

func TestFaultRunReplay(t *testing.T) {
	wantReplay(t, "-gen", "fig2", "-instr", "q", "-runs", "0", "-faults", "crash", "-seed", "7")
}

func TestFaultRunReplayDining(t *testing.T) {
	wantReplay(t, "-kind", "dining", "-gen", "dining-flipped 4", "-meals", "2", "-faults", "stall", "-seed", "3")
}

func TestFaultRunRejectsUnknownClass(t *testing.T) {
	for _, args := range [][]string{
		{"-gen", "fig2", "-instr", "q", "-runs", "0"},
		{"-gen", "ring 4"}, // unsolvable: rejected before any run
		{"-kind", "dining", "-gen", "dining-flipped 4"},
	} {
		var out strings.Builder
		if err := run(append(args, "-faults", "gremlins"), &out); err == nil {
			t.Errorf("%v: unknown fault class should be rejected", args)
		}
	}
}

// TestFaultRunMatchesSession pins the shared seeding rule: the CLI's
// fault run and a simsymd session with the same topology, kind, seed,
// fault classes, "shuffled" schedule kind and slot budget must draw the
// same schedule and fault streams and end in the same state.
func TestFaultRunMatchesSession(t *testing.T) {
	cases := []struct {
		kind, gen, faults string
		seed              int64
	}{
		{"select", "fig2", "crash", 7},
		{"dining", "dining-flipped 4", "stall,lockdrop", 3},
	}
	srv := server.New(server.Config{Shards: 1})
	defer func() {
		if err := srv.Drain(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			sys, err := sysdsl.Load("", tc.gen, nil)
			if err != nil {
				t.Fatal(err)
			}
			var h *adversary.Harness
			if tc.kind == "select" {
				h, err = adversary.NewSelectHarness(sys, system.InstrQ, system.SchedFair, nil)
			} else {
				h, err = adversary.NewDiningHarness(sys, 2, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
			seeding, err := adversary.NewSeeding("shuffled", tc.faults)
			if err != nil {
				t.Fatal(err)
			}
			c := &config{faults: tc.faults, seeding: seeding, seed: tc.seed}
			cli, err := runFaulted(io.Discard, h, c, func(*adversary.Result) string { return "" })
			if err != nil {
				t.Fatal(err)
			}

			snap, err := srv.Create(server.SessionConfig{
				Topology: "gen " + tc.gen,
				Kind:     tc.kind,
				Meals:    2,
				Config: runcfg.Common{
					Seed:         tc.seed,
					SchedKind:    "shuffled",
					FaultClasses: tc.faults,
					MaxSlots:     faultRunSlots,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := srv.Run(snap.ID, ""); err != nil {
				t.Fatal(err)
			}
			sess, err := srv.Inspect(snap.ID, true)
			if err != nil {
				t.Fatal(err)
			}

			if len(cli.FaultLog) == 0 {
				t.Fatalf("fault run fired no faults; the case pins nothing")
			}
			if fmt.Sprint(cli.Schedule) != fmt.Sprint(sess.Schedule) {
				t.Errorf("schedules differ:\ncli     %v\nsession %v", cli.Schedule, sess.Schedule)
			}
			var faults []string
			for _, e := range cli.FaultLog {
				faults = append(faults, e.String())
			}
			if fmt.Sprint(faults) != fmt.Sprint(sess.Faults) {
				t.Errorf("fault logs differ:\ncli     %v\nsession %v", faults, sess.Faults)
			}
			if cli.Fingerprint != sess.Fingerprint {
				t.Errorf("final fingerprints differ")
			}

			// The command line prints the same run.
			args := []string{"-kind", tc.kind, "-gen", tc.gen, "-runs", "0", "-meals", "2",
				"-faults", tc.faults, "-seed", fmt.Sprint(tc.seed)}
			wantAll(t, runOK(t, args...), fmt.Sprintf("steps=%d slots=%d events=%d done=%v",
				sess.Steps, sess.Slots, len(sess.Faults), sess.Done))
		})
	}
}
