package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"simsym"
	"simsym/internal/core"
	"simsym/internal/dining"
	"simsym/internal/system"
)

// runShort runs one workload at its tiny size and returns the parsed
// result line.
func runShort(t *testing.T, workload, trace string) resultOut {
	t.Helper()
	var out, errb bytes.Buffer
	code := run([]string{"-workload", workload, "-seed", "3", "-seconds", "0.3", "-trace", trace,
		"-short", "-root", "..", "-out", t.TempDir()}, &out, &errb)
	if code != 0 {
		t.Fatalf("%s trace=%s: exit %d\nstdout:\n%s\nstderr:\n%s", workload, trace, code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultOut
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, out.String())
	}
	return res
}

func TestShortWorkloads(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				res := runShort(t, w, trace)
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v", d.name, m)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics this program
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), "check,sample,similarity,daemon"; got != want {
		t.Errorf("workloads %s, want %s", got, want)
	}
	for _, w := range names {
		if _, ok := workloads[w]; !ok {
			t.Errorf("workload %s has no driver", w)
		}
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, program has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d] = %+v, program has %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

func TestCheckGateRejectsOffByOneStateCount(t *testing.T) {
	rep := &dining.Report{StatesExplored: checkFull.states, Complete: true}
	if err := checkVerdict("test", rep, checkFull.states); err != nil {
		t.Fatalf("correct verdict rejected: %v", err)
	}
	for _, bad := range []*dining.Report{
		{StatesExplored: checkFull.states + 1, Complete: true},
		{StatesExplored: checkFull.states - 1, Complete: true},
		{StatesExplored: checkFull.states, Complete: false},
		{StatesExplored: checkFull.states, Complete: true, Deadlocked: []int{0, 1}},
		{StatesExplored: checkFull.states, Complete: true, ExclusionViolated: []int{2}},
	} {
		if checkVerdict("test", bad, checkFull.states) == nil {
			t.Errorf("gate accepted %+v", bad)
		}
	}
}

func TestSampleGatesRejectWrongReports(t *testing.T) {
	spec := sampleShort
	sys, err := simsym.Dining(spec.n)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := simsym.DiningProgram("left", "right", 2)
	if err != nil {
		t.Fatal(err)
	}
	target := simsym.OkamotoSamples(spec.epsilon, spec.delta)
	rep, err := simsym.CheckStatisticalDining(sys, prog, spec.options(5)...)
	if err != nil {
		t.Fatal(err)
	}
	again, err := simsym.CheckStatisticalDining(sys, prog, spec.options(5)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := sampleGate(rep, again, target); err != nil {
		t.Fatalf("same-seed reports rejected: %v", err)
	}
	if rep.Safe {
		t.Fatal("short sample found no counterexample to replay")
	}
	if err := replayGate(sys, prog, rep); err != nil {
		t.Fatalf("genuine counterexample rejected: %v", err)
	}

	if sampleGate(rep, again, target+1) == nil {
		t.Error("gate accepted a report short of the Okamoto target")
	}
	other := *again
	other.Violations++
	if sampleGate(rep, &other, target) == nil {
		t.Error("gate accepted two different reports for one seed")
	}
	forged := *rep
	forged.Violation = "philosophers 0 and 1 eat together"
	if replayGate(sys, prog, &forged) == nil {
		t.Error("replay gate accepted a violation the trace does not reach")
	}
}

func TestSimilarityGatesRejectPerturbedLabeling(t *testing.T) {
	tree, err := system.Tree(31)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.NewDynSystem(tree, core.RuleQ, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sp := newSplicer(d, tree.ProcIDs, "tree", 9)
	for i := 0; i < 20; i++ {
		if err := sp.step(); err != nil {
			t.Fatal(err)
		}
	}
	want, err := core.Similarity(d.Snapshot(), d.Rule())
	if err != nil {
		t.Fatal(err)
	}
	got := d.Labeling()
	if err := labelingGate("tree", got, want); err != nil {
		t.Fatalf("correct labeling rejected: %v", err)
	}
	bad := *got
	bad.ProcLabels = append([]int(nil), got.ProcLabels...)
	bad.ProcLabels[len(bad.ProcLabels)-1]++
	if labelingGate("tree", &bad, want) == nil {
		t.Error("gate accepted a perturbed labeling")
	}

	ring, err := system.Ring(16)
	if err != nil {
		t.Fatal(err)
	}
	ring.ProcInit[5] = "leader"
	lab, err := core.Similarity(ring, core.RuleQ)
	if err != nil {
		t.Fatal(err)
	}
	if err := markedRingGate(lab, 16); err != nil {
		t.Fatalf("marked ring rejected: %v", err)
	}
	plain, err := system.Ring(16)
	if err != nil {
		t.Fatal(err)
	}
	lab, err = core.Similarity(plain, core.RuleQ)
	if err != nil {
		t.Fatal(err)
	}
	if markedRingGate(lab, 16) == nil {
		t.Error("gate accepted an unmarked ring's single class")
	}
}

func TestDaemonGatesRejectForgedReplies(t *testing.T) {
	if _, err := checkReply(200, []byte(`{"id":"s-1","kind":"select","steps":1}`)); err != nil {
		t.Fatalf("good reply rejected: %v", err)
	}
	for _, c := range []struct {
		status int
		body   string
	}{
		{500, `{"error":"boom"}`},
		{502, ``},
		{200, `{"id":"s-1","violation":"two processors selected"}`},
		{200, `not json`},
		{201, `{}`},
	} {
		_, err := checkReply(c.status, []byte(c.body))
		if err == nil || errors.Is(err, errRejected) {
			t.Errorf("status %d %q: got %v, want a wrong-answer error", c.status, c.body, err)
		}
	}
	for _, status := range []int{429, 503} {
		if _, err := checkReply(status, nil); !errors.Is(err, errRejected) {
			t.Errorf("status %d: got %v, want errRejected", status, err)
		}
	}

	counts := clientCounts{creates: 10, deletes: 10, stepRequests: 40, machineSteps: 37}
	m := parseMetrics(`# TYPE simsym_server_sessions_created_total counter
simsym_server_sessions_created_total 10
simsym_server_sessions_deleted_total 10
simsym_server_step_latency_seconds_count 40
simsym_server_steps_total 37
`)
	if err := reconcile(m, counts); err != nil {
		t.Fatalf("matching counters rejected: %v", err)
	}
	m["simsym_server_steps_total"] = 38
	if reconcile(m, counts) == nil {
		t.Error("gate accepted a step counter the clients did not see")
	}
}

func TestFailedGateFailsTheRun(t *testing.T) {
	r := newReport()
	r.op(false)
	for _, d := range endToEnd {
		r.e2e[d.name] = 1
	}
	res, err := r.result(false)
	if err != nil || !res.Correct {
		t.Fatalf("clean report: %+v, %v", res, err)
	}
	r.gate(errors.New("wrong answer"))
	if res, _ := r.result(false); res.Correct {
		t.Error("a failed gate left the result correct")
	}
	delete(r.e2e, "setup_s")
	if _, err := r.result(false); err == nil {
		t.Error("a missing end-to-end metric was accepted")
	}
}
