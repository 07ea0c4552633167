// Command simbench is the repository benchmark. It runs one of four
// workloads (check, sample, similarity, daemon) for a fixed time on
// inputs derived from a seed, checks every answer against a known
// reference, and prints its metrics by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 the run also repeats the workload while timing calls into
// each layer's public functions from this package, and the metrics are
// the per-layer ones (layer self times, layer counters and the tracing
// overhead). Spans are kept in memory and written to -out when the run
// ends. Any failed correctness gate makes the run exit with status 1.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash simbench/run.sh --workload check --seed 1 --seconds 20 --trace 0
//
// README.md in this directory explains each workload, the layers it
// stresses and bypasses, and which end-to-end metric each layer metric
// should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository root, where cmd/simsymd is built from
	out      string // directory for the daemon binary and span files
	short    bool   // tiny sizes: the benchmark's own tests
	log      io.Writer
}

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
}

// endToEnd lists the end-to-end metrics every workload reports with
// -trace 0. Each is measured on every workload, with times on the
// reference core (see refClock); README.md gives the per-workload meaning
// of throughput_per_cpu_s and op_cpu_ms.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"throughput_per_cpu_s", "1/s", "higher"},
	{"op_cpu_ms", "ms", "lower"},
}

// report collects one workload's outcome.
type report struct {
	attempted, failed int64
	gates             []string // failed correctness gates
	named             []string // printed metric lines
	e2e               map[string]float64
	layers            map[string]float64
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// gate records the outcome of one correctness gate: a non-nil error is
// a wrong answer, which fails the run.
func (r *report) gate(err error) {
	if err != nil {
		r.gates = append(r.gates, err.Error())
	}
}

// op counts one attempted operation and whether it failed.
func (r *report) op(failed bool) {
	r.attempted++
	if failed {
		r.failed++
	}
}

// metric records one of the issue-named end-to-end metrics for the
// printed summary.
func (r *report) metric(name string, v float64, unit, detail string) {
	line := fmt.Sprintf("metric %-22s %14.6g %s", name, v, unit)
	if detail != "" {
		line += "  (" + detail + ")"
	}
	r.named = append(r.named, line)
}

// layer records one per-layer metric.
func (r *report) layer(name string, v float64) { r.layers[name] = v }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result renders the final JSON line. It fails when a metric the mode
// must report is missing or not finite, so a broken measurement cannot
// pass as a number.
func (r *report) result(trace bool) (resultOut, error) {
	defs, vals := endToEnd, r.e2e
	if trace {
		defs, vals = perLayer, r.layers
	}
	out := resultOut{
		Correct:   len(r.gates) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !trace {
			return out, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is not finite", d.name)
		}
		if !trace && v <= 0 {
			return out, fmt.Errorf("metric %s is %v, want > 0", d.name, v)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	for name := range vals {
		if !hasMetric(defs, name) {
			return out, fmt.Errorf("metric %s is not declared", name)
		}
	}
	if out.Attempted < 1 {
		return out, fmt.Errorf("no operation was attempted")
	}
	return out, nil
}

func hasMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: check, sample, similarity or daemon")
	fs.Int64Var(&o.seed, "seed", 1, "seed every generated input is derived from")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of each timed phase in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.StringVar(&o.root, "root", ".", "repository root")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for built binaries and span files")
	fs.BoolVar(&o.short, "short", false, "run at tiny sizes (for tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	o.log = stdout
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "simbench: -seconds must be positive")
		return 2
	}
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "simbench: unknown workload %q (want %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "simbench workload=%s seed=%d seconds=%g trace=%d short=%v\n",
		o.workload, o.seed, o.seconds, traceFlag, o.short)

	r := newReport()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	if err := w(o, r, tr); err != nil {
		fmt.Fprintf(stderr, "simbench: %s: %v\n", o.workload, err)
		return 1
	}
	if tr != nil {
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintln(stderr, "simbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
		for _, d := range perLayer {
			fmt.Fprintf(stdout, "layer  %-40s %14.6g %s\n", d.name, r.layers[d.name], d.unit)
		}
	}
	for _, line := range r.named {
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintf(stdout, "metric %-22s %14.6g ratio  (%d failed of %d attempted)\n",
		"fail_ratio", float64(r.failed)/math.Max(1, float64(r.attempted)), r.failed, r.attempted)
	for _, g := range r.gates {
		fmt.Fprintln(stdout, "GATE FAILED:", g)
	}
	res, err := r.result(o.trace)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// workloads maps each workload name to its driver. A driver returns an
// error only when it could not run at all; wrong answers go through
// report.gate.
var workloads = map[string]func(options, *report, *tracer) error{
	"check":      runCheck,
	"sample":     runSample,
	"similarity": runSimilarity,
	"daemon":     runDaemon,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
