// Package obsflag wires the shared observability command-line surface —
// -metrics, -trace-jsonl, -pprof — into the commands. It owns the flag
// registration, the recorder construction, and the end-of-run flush, so
// simrun and experiments expose an identical surface.
package obsflag

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served by -pprof
	"os"

	"simsym/internal/obs"
)

// Flags holds the parsed observability flags.
type Flags struct {
	// Metrics prints the metrics registry in Prometheus text exposition
	// format to the command's output when the run finishes.
	Metrics bool
	// Trace is a file path receiving the structured event stream as JSON
	// lines ("-" for stdout).
	Trace string
	// Pprof is a listen address (e.g. "localhost:6060") serving
	// net/http/pprof under /debug/pprof/ and the live metrics registry
	// under /metrics.
	Pprof string

	rec   *obs.Recorder
	file  *os.File
	jsonl *obs.JSONL
}

// Register installs the observability flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.Metrics, "metrics", false, "print the metrics registry (Prometheus text format) when the run finishes")
	fs.StringVar(&f.Trace, "trace-jsonl", "", "write the structured event stream to `FILE` as JSON lines (- for stdout)")
	fs.StringVar(&f.Pprof, "pprof", "", "serve net/http/pprof and /metrics on `ADDR` (e.g. localhost:6060)")
	return f
}

// Recorder builds the recorder the flags imply and starts the -pprof
// server when requested. It returns nil — free on every hot path — when
// no observability flag is set. Call Close when the run finishes.
func (f *Flags) Recorder() (*obs.Recorder, error) {
	if !f.Metrics && f.Trace == "" && f.Pprof == "" {
		return nil, nil
	}
	sink := obs.Sink(obs.Discard)
	switch f.Trace {
	case "":
	case "-":
		f.jsonl = obs.NewJSONL(os.Stdout)
		sink = f.jsonl
	default:
		file, err := os.Create(f.Trace)
		if err != nil {
			return nil, fmt.Errorf("obsflag: %w", err)
		}
		f.file = file
		f.jsonl = obs.NewJSONL(file)
		sink = f.jsonl
	}
	f.rec = obs.New(sink)
	if f.Pprof != "" {
		mux := http.DefaultServeMux
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			_ = f.rec.Metrics().WriteText(w)
		})
		go func() {
			if err := http.ListenAndServe(f.Pprof, mux); err != nil {
				fmt.Fprintln(os.Stderr, "obsflag: pprof server:", err)
			}
		}()
	}
	return f.rec, nil
}

// Close flushes the JSONL trace and, with -metrics, renders the registry
// to out. Safe to call when Recorder returned nil.
func (f *Flags) Close(out io.Writer) error {
	if f.jsonl != nil {
		if err := f.jsonl.Close(); err != nil {
			return fmt.Errorf("obsflag: flushing trace: %w", err)
		}
	}
	if f.file != nil {
		if err := f.file.Close(); err != nil {
			return fmt.Errorf("obsflag: closing trace: %w", err)
		}
	}
	if f.Metrics && f.rec != nil {
		fmt.Fprintln(out, "--- metrics ---")
		if err := f.rec.Metrics().WriteText(out); err != nil {
			return fmt.Errorf("obsflag: rendering metrics: %w", err)
		}
	}
	return nil
}
