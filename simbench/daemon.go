package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"simsym/internal/adversary"
	"simsym/internal/core"
	"simsym/internal/mc"
	"simsym/internal/selection"
	"simsym/internal/server"
	"simsym/internal/sysdsl"
	"simsym/internal/system"
)

// The daemon workload's traffic: closed-loop clients, each waiting for
// its reply, run session lifecycles of one create, clientSteps
// single-slot steps and one delete. sharedShare of the creates name one
// of sharedTopologies; the rest are marked rings of ringMin..ringMax
// processors, each with a leader value no other session uses.
const (
	clientSteps      = 4
	sharedShare      = 0.75
	ringMin, ringMax = 8, 64
	warmShare        = 0.1 // of the timed window, spent warming the daemon
	setupStarts      = 7   // daemon starts per run; setup_s is their median
	replayShare      = 0.1 // of the timed window, per in-process replay (trace only)
)

var sharedTopologies = []server.SessionConfig{
	{Topology: "gen fig2", Kind: "select"},
	{Topology: "gen fig3", Kind: "select"},
	{Topology: "gen dining-flipped 6", Kind: "dining"},
}

// mix is one client's seeded stream of session configurations.
type mix struct {
	rng    *rand.Rand
	stream int
	n      int
}

func newMix(seed int64, stream int) *mix {
	return &mix{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(stream))), stream: stream}
}

// next returns the next session's configuration and whether its
// topology is one of the shared ones.
func (m *mix) next() (server.SessionConfig, bool, error) {
	m.n++
	var cfg server.SessionConfig
	shared := m.rng.Float64() < sharedShare
	if shared {
		cfg = sharedTopologies[m.rng.Intn(len(sharedTopologies))]
	} else {
		n := ringMin + m.rng.Intn(ringMax-ringMin+1)
		ring, err := system.Ring(n)
		if err != nil {
			return cfg, false, err
		}
		ring.ProcInit[m.rng.Intn(n)] = fmt.Sprintf("leader%dx%d", m.stream, m.n)
		cfg = server.SessionConfig{Topology: sysdsl.Serialize(ring), Kind: "select"}
	}
	cfg.Config.Seed = m.rng.Int63()
	return cfg, shared, nil
}

// errRejected marks a request the daemon refused (429 or 503): a failed
// operation, but not a wrong answer.
var errRejected = errors.New("rejected")

// checkReply is the daemon workload's per-reply gate: the request was
// accepted, the reply decodes as a session snapshot, and the session
// reports no violation.
func checkReply(status int, body []byte) (server.Snapshot, error) {
	var snap server.Snapshot
	switch {
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		return snap, fmt.Errorf("%w: status %d", errRejected, status)
	case status/100 != 2:
		return snap, fmt.Errorf("daemon: status %d: %s", status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return snap, fmt.Errorf("daemon: reply does not decode: %v", err)
	}
	if snap.ID == "" {
		return snap, fmt.Errorf("daemon: reply has no session id")
	}
	if snap.Violation != "" {
		return snap, fmt.Errorf("daemon: session %s reports violation %q", snap.ID, snap.Violation)
	}
	return snap, nil
}

// clientCounts are what the clients saw succeed, to reconcile with the
// daemon's own counters.
type clientCounts struct {
	creates, deletes, stepRequests, machineSteps int64
}

func (c *clientCounts) add(o clientCounts) {
	c.creates += o.creates
	c.deletes += o.deletes
	c.stepRequests += o.stepRequests
	c.machineSteps += o.machineSteps
}

// reconcile is the daemon workload's end-of-run gate: simsymd's session
// and step counters equal the clients' counts exactly.
func reconcile(m map[string]float64, c clientCounts) error {
	for _, chk := range []struct {
		metric string
		want   int64
	}{
		{"simsym_server_sessions_created_total", c.creates},
		{"simsym_server_sessions_deleted_total", c.deletes},
		{"simsym_server_step_latency_seconds_count", c.stepRequests},
		{"simsym_server_steps_total", c.machineSteps},
	} {
		if got := m[chk.metric]; got != float64(chk.want) {
			return fmt.Errorf("daemon: /metrics %s = %v, clients counted %d", chk.metric, got, chk.want)
		}
	}
	return nil
}

// parseMetrics reads Prometheus text exposition into name → value.
func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

// control carries the benchmark's own requests to simsymd (health,
// metrics, drain); its timeout keeps a hung daemon from hanging the run.
var control = &http.Client{Timeout: 30 * time.Second}

// daemonProc is one simsymd child process.
type daemonProc struct {
	cmd    *exec.Cmd
	base   string
	pid    string
	done   chan error // receives Wait's result once
	stdout firstLine
	stderr bytes.Buffer
}

// firstLine collects a process's output and hands its first line over
// once it is complete.
type firstLine struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	line chan string
}

func (f *firstLine) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	had := bytes.IndexByte(f.buf.Bytes(), '\n') >= 0
	f.buf.Write(p)
	if i := bytes.IndexByte(f.buf.Bytes(), '\n'); !had && i >= 0 {
		f.line <- string(f.buf.Bytes()[:i])
	}
	return len(p), nil
}

// cpuMask is a Linux CPU affinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func affinity(tid int, get bool, m *cpuMask) error {
	call := uintptr(syscall.SYS_SCHED_SETAFFINITY)
	if get {
		call = syscall.SYS_SCHED_GETAFFINITY
	}
	_, _, errno := syscall.RawSyscall(call, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// pinOneCPU pins every thread of this process to the first CPU it may
// run on; threads and processes started afterwards inherit the mask. It
// returns a function that restores each thread's former mask.
func pinOneCPU() (unpin func(), err error) {
	var old, one cpuMask
	if err := affinity(0, true, &old); err != nil {
		return nil, fmt.Errorf("sched_getaffinity: %w", err)
	}
	for i, w := range old {
		if w != 0 {
			one[i] = w & -w
			break
		}
	}
	entries, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return nil, err
	}
	unpin = func() {
		tasks, _ := os.ReadDir("/proc/self/task")
		for _, e := range tasks {
			if tid, err := strconv.Atoi(e.Name()); err == nil {
				_ = affinity(tid, false, &old)
			}
		}
	}
	for _, e := range entries {
		tid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if err := affinity(tid, false, &one); err != nil {
			unpin()
			return nil, fmt.Errorf("sched_setaffinity: %w", err)
		}
	}
	return unpin, nil
}

// startDaemon starts simsymd on a free loopback port with its own
// GOMAXPROCS and returns once /healthz answers, with the CPU time simsymd
// spent until then. Its wall time mostly measures how soon the host runs
// a new process; across runs it spread by a third.
func startDaemon(bin string, procs int) (*daemonProc, time.Duration, error) {
	d := &daemonProc{done: make(chan error, 1)}
	d.stdout.line = make(chan string, 1)
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0")
	d.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	d.cmd.Stdout = &d.stdout
	d.cmd.Stderr = &d.stderr
	// If the benchmark dies without draining, the daemon dies with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	d.pid = strconv.Itoa(d.cmd.Process.Pid)
	go func() { d.done <- d.cmd.Wait() }()
	var line string
	select {
	case line = <-d.stdout.line:
	case err := <-d.done:
		d.done <- err
		return nil, 0, fmt.Errorf("simsymd exited at start (%v): %s", err, d.stderr.String())
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, 0, fmt.Errorf("simsymd did not report its address within 30s")
	}
	// "simsymd: listening on 127.0.0.1:PORT (...)"
	f := strings.Fields(line)
	if len(f) < 4 || f[1] != "listening" {
		d.kill()
		return nil, 0, fmt.Errorf("simsymd: unexpected first line %q", line)
	}
	d.base = "http://" + f[3]
	for {
		resp, err := control.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 30*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("simsymd /healthz did not answer within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	cpu, err := schedCPU(d.pid)
	if err != nil {
		d.kill()
		return nil, 0, err
	}
	return d, cpu, nil
}

// kill ends the process and waits for it; for error paths.
func (d *daemonProc) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

// drain stops the daemon through POST /admin/drain and requires it to
// exit with status 0.
func (d *daemonProc) drain() error {
	resp, err := control.Post(d.base+"/admin/drain", "application/json", nil)
	if err != nil {
		d.kill()
		return fmt.Errorf("drain: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.kill()
		return fmt.Errorf("drain: status %d", resp.StatusCode)
	}
	select {
	case err := <-d.done:
		if err != nil {
			return fmt.Errorf("simsymd exited with %v: %s", err, d.stderr.String())
		}
		return nil
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("simsymd did not exit within 30s of draining")
	}
}

func (d *daemonProc) get(path string) (string, error) {
	resp, err := control.Get(d.base + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return string(raw), nil
}

// client is one closed-loop load-generator client with its own
// connection.
type client struct {
	hc       *http.Client
	base     string
	mix      *mix
	tr       *tracer // nil when untraced
	createMs []float64
	stepMs   []float64
	start    time.Time       // start of the current load phase
	doneAt   []time.Duration // lifecycle completions, from start
	counts   clientCounts
	attempts int64
	failures int64
	wrong    []string
}

func newClient(base string, m *mix) *client {
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tp, Timeout: 30 * time.Second}, base: base, mix: m}
}

func (c *client) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// request sends one request and applies checkReply, recording the
// latency and any failure.
func (c *client) request(name, method, path string, body []byte, op int64) (server.Snapshot, time.Duration, bool) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	c.attempts++
	var id int
	if c.tr != nil {
		id = c.tr.begin(name, op)
	}
	t0 := time.Now()
	status, raw, err := c.do(method, path, rd)
	d := time.Since(t0)
	if c.tr != nil {
		c.tr.end(id)
	}
	var snap server.Snapshot
	if err == nil {
		snap, err = checkReply(status, raw)
	}
	if err != nil {
		c.failures++
		if !errors.Is(err, errRejected) {
			c.wrong = append(c.wrong, err.Error())
		}
		return snap, d, false
	}
	return snap, d, true
}

func (c *client) do(method, path string, body io.Reader) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

var stepBody = []byte(`{"slots":1}`)

// lifecycle runs one session: create, clientSteps steps, delete.
func (c *client) lifecycle() error {
	cfg, _, err := c.mix.next()
	if err != nil {
		return err
	}
	body, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	op := int64(c.mix.stream)<<32 | int64(c.mix.n)
	snap, d, ok := c.request("http.create", http.MethodPost, "/v1/sessions", body, op)
	if !ok {
		return nil
	}
	c.counts.creates++
	c.createMs = append(c.createMs, ms(d))
	id := snap.ID
	for i := 0; i < clientSteps; i++ {
		s, d, ok := c.request("http.step", http.MethodPost, "/v1/sessions/"+id+"/step", stepBody, op)
		if !ok {
			break
		}
		c.counts.stepRequests++
		c.stepMs = append(c.stepMs, ms(d))
		snap = s
	}
	s, _, ok := c.request("http.delete", http.MethodDelete, "/v1/sessions/"+id, nil, op)
	if ok {
		c.counts.deletes++
		c.counts.machineSteps += int64(s.Steps)
		c.doneAt = append(c.doneAt, time.Since(c.start))
	} else {
		c.counts.machineSteps += int64(snap.Steps)
	}
	return nil
}

// loadPhase runs every client's closed loop until the window ends and
// returns the wall time the phase took. With a clock, the reference
// kernel also runs every refEvery during the phase; the CPU time it took
// is returned too.
func loadPhase(clients []*client, window time.Duration, clk *refClock) (time.Duration, time.Duration, error) {
	start := time.Now()
	deadline := start.Add(window)
	var inKernel time.Duration
	var wg sync.WaitGroup
	if clk != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				time.Sleep(refEvery)
				inKernel += clk.tick()
			}
		}()
	}
	errs := make([]error, len(clients))
	for i, c := range clients {
		c.start = start
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if err := c.lifecycle(); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	return time.Since(start), inKernel, errors.Join(errs...)
}

// phaseStats folds the clients of one phase into the report's counts
// and returns their merged latencies and lifecycle completion times.
func phaseStats(r *report, clients []*client) (createMs, stepMs []float64, done []time.Duration, counts clientCounts) {
	for _, c := range clients {
		createMs = append(createMs, c.createMs...)
		stepMs = append(stepMs, c.stepMs...)
		done = append(done, c.doneAt...)
		counts.add(c.counts)
		r.attempted += c.attempts
		r.failed += c.failures
		for _, w := range c.wrong {
			r.gate(errors.New(w))
		}
		c.close()
	}
	return
}

func runDaemon(o options, r *report, tr *tracer) error {
	bin, err := filepath.Abs(filepath.Join(o.out, "simsymd"))
	if err != nil {
		return err
	}
	build := exec.Command("go", "build", "-o", bin, "./cmd/simsymd")
	build.Dir = o.root
	if out, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("building simsymd: %v\n%s", err, out)
	}
	// The generator and simsymd share one core, one P each: each
	// lifecycle's CPU is then the same on every run, where with a core
	// each their schedulers spin for as long as the other core lags.
	nproc := runtime.NumCPU()
	daemonProcs, genProcs := 1, 1
	prev := runtime.GOMAXPROCS(genProcs)
	defer runtime.GOMAXPROCS(prev)
	unpin, err := pinOneCPU()
	if err != nil {
		return err
	}
	defer unpin()
	nclients := max(1, nproc)
	fmt.Fprintf(o.log, "daemon: simsymd GOMAXPROCS=%d, generator GOMAXPROCS=%d, %d closed-loop clients, seed %d\n",
		daemonProcs, genProcs, nclients, o.seed)

	var setups []float64
	var d *daemonProc
	setupClk := &refClock{}
	setupClk.tick()
	for i := 0; i < setupStarts; i++ {
		p, took, err := startDaemon(bin, daemonProcs)
		if err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
		setupClk.tick()
		if i == setupStarts-1 {
			d = p
			break
		}
		derr := p.drain()
		r.op(derr != nil)
		r.gate(derr)
	}
	setup := median(setups) * setupClk.scale()

	window := time.Duration(o.seconds * float64(time.Second))
	mk := func(stream int) []*client {
		cs := make([]*client, nclients)
		for i := range cs {
			cs[i] = newClient(d.base, newMix(o.seed, stream*nclients+i))
		}
		return cs
	}
	var total clientCounts
	warm := mk(0)
	_, _, werr := loadPhase(warm, time.Duration(warmShare*float64(window)), nil)
	_, _, _, wc := phaseStats(r, warm)
	total.add(wc)

	// The kernel runs in this process, on the core the clients and the
	// daemon share, throughout the timed phase; its CPU time is taken out
	// of the generator's. Client latencies include the few milliseconds a
	// kernel run holds the core.
	clk := &refClock{}
	clk.tick()
	cpuD0, err1 := schedCPU(d.pid)
	cpuG0, err2 := schedCPU("self")
	timed := mk(1)
	elapsed, inKernel, lerr := loadPhase(timed, window, clk)
	cpuD1, err3 := schedCPU(d.pid)
	cpuG1, err4 := schedCPU("self")
	cpuG1 -= inKernel
	clk.tick()
	scale := clk.scale()
	createMs, stepMs, done, tc := phaseStats(r, timed)
	total.add(tc)

	// The traced phase repeats the timed one with a span per request; the
	// root span stays open for the in-process replays below.
	var tracedCreateP50 float64
	root := -1
	if tr != nil && werr == nil && lerr == nil {
		root = tr.begin("bench.daemon", 0)
		traced := mk(2)
		for _, c := range traced {
			c.tr = tr.fork()
		}
		_, _, lerr = loadPhase(traced, window, nil)
		tcm, _, _, trc := phaseStats(r, traced)
		total.add(trc)
		tracedCreateP50 = median(tcm)
	}

	metricsText, merr := d.get("/metrics")
	rss, rerr := peakRSSMB(d.pid)
	derr := d.drain()
	if err := errors.Join(werr, lerr, merr, rerr, err1, err2, err3, err4); err != nil {
		return errors.Join(err, derr)
	}
	r.op(derr != nil)
	r.gate(derr)
	m := parseMetrics(metricsText)
	gerr := reconcile(m, total)
	r.op(gerr != nil)
	r.gate(gerr)
	if len(done) == 0 {
		return fmt.Errorf("no session completed in the timed window")
	}

	// The gated figures are CPU costs: on a shared host the closed loop's
	// wall-clock rate and latencies swing with the neighbours far past any
	// useful bound, while the CPU the two processes spend per lifecycle
	// does not. The client-side wall figures are printed beside them.
	sessionMs := ms((cpuD1-cpuD0)+(cpuG1-cpuG0)) / float64(len(done)) * scale
	rawRate := sliceRate(done, elapsed, window/rateSlices)
	rawC50, _ := quantile(createMs, 0.5)
	rate := rawRate / scale
	c50 := rawC50 * scale
	c99, cb := quantile(createMs, 0.99)
	rawS50, _ := quantile(stepMs, 0.5)
	s99, sb := quantile(stepMs, 0.99)
	c99, s50, s99 := c99*scale, rawS50*scale, s99*scale
	r.e2e["setup_s"] = setup
	r.e2e["peak_rss_mb"] = rss
	r.e2e["throughput_per_cpu_s"] = 1e3 / sessionMs
	r.e2e["op_cpu_ms"] = sessionMs
	r.metric("setup_s", setup, "s", fmt.Sprintf("reference CPU time of simsymd from start until /healthz answers, median of %d starts", setupStarts))
	r.metric("sessions_per_s", rate, "1/s", fmt.Sprintf("per reference second, median over %d slices; %d lifecycles in %.3gs",
		rateSlices, len(done), elapsed.Seconds()))
	r.metric("session_cpu_ms", sessionMs, "ms", fmt.Sprintf("reference CPU time of simsymd and the generator per lifecycle; host kernel %.4g ms", clk.kernelMs()))
	r.metric("sessions_per_wall_s", rawRate, "1/s", "on this host; not gated")
	r.metric("create_p50_wall_ms", rawC50, "ms", "on this host; not gated")
	r.metric("create_p50_ms", c50, "ms", fmt.Sprintf("n=%d", len(createMs)))
	r.metric("create_p99_ms", c99, "ms", tailDetail(len(createMs), cb))
	r.metric("step_p50_ms", s50, "ms", fmt.Sprintf("n=%d", len(stepMs)))
	r.metric("step_p99_ms", s99, "ms", tailDetail(len(stepMs), sb))
	r.metric("peak_rss_mb", rss, "MB", "simsymd process")

	if tr == nil {
		return nil
	}
	sessions := float64(len(done))
	r.layer("daemon.cpu_ms_per_session", ms(cpuD1-cpuD0)/sessions)
	r.layer("loadgen.cpu_ms_per_session", ms(cpuG1-cpuG0)/sessions)
	if st := m["simsym_server_step_latency_seconds_count"]; st > 0 {
		r.layer("server.coalesced_ratio", m["simsym_server_steps_coalesced_total"]/st)
	}
	if b := m["simsym_server_batches_total"]; b > 0 {
		r.layer("server.batch_size", m["simsym_server_batched_reqs_total"]/b)
	}
	replay := time.Duration(replayShare * float64(window))
	direct, err := replayServer(o, tr, replay)
	if err != nil {
		return err
	}
	r.layer("server.create_us", direct.create)
	r.layer("server.step_us", direct.step)
	r.layer("server.delete_us", direct.delete)
	r.layer("http.create_overhead_us", rawC50*1e3-direct.create)
	r.layer("http.step_overhead_us", rawS50*1e3-direct.step)
	if err := replayLayers(o, r, tr, replay); err != nil {
		return err
	}
	tr.end(root)
	finishTrace(r, tr, root, tracedCreateP50, rawC50)
	return nil
}

// directStats are the in-process server's median call times in µs.
type directStats struct{ create, step, delete float64 }

// replayServer replays the seeded mix against an in-process
// server.Server through its public calls (each includes the hop through
// the owning shard's queue), with no HTTP in between.
func replayServer(o options, tr *tracer, window time.Duration) (directStats, error) {
	s := server.New(server.Config{})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	}()
	m := newMix(o.seed, 1000)
	var create, step, del []float64
	start := time.Now()
	for len(create) < 100 || time.Since(start) < window {
		cfg, _, err := m.next()
		if err != nil {
			return directStats{}, err
		}
		op := int64(m.n)
		sp := tr.begin("server.create", op)
		snap, err := s.Create(cfg)
		create = append(create, float64(tr.end(sp))/1e3)
		if err != nil {
			return directStats{}, fmt.Errorf("in-process create: %w", err)
		}
		for i := 0; i < clientSteps; i++ {
			sp = tr.begin("server.step", op)
			_, err := s.Step(snap.ID, 1, "")
			step = append(step, float64(tr.end(sp))/1e3)
			if err != nil {
				return directStats{}, fmt.Errorf("in-process step: %w", err)
			}
		}
		sp = tr.begin("server.delete", op)
		_, err = s.Delete(snap.ID)
		del = append(del, float64(tr.end(sp))/1e3)
		if err != nil {
			return directStats{}, fmt.Errorf("in-process delete: %w", err)
		}
	}
	return directStats{create: median(create), step: median(step), delete: median(del)}, nil
}

// replayLayers replays the seeded mix through the layers a session
// build and step call, each timed on its own: sysdsl parsing, the
// similarity labeling, the selection decision and the SELECT build, the
// harness start and single-slot advances. Times are split by whether
// the topology is shared or unique.
func replayLayers(o options, r *report, tr *tracer, window time.Duration) error {
	m := newMix(o.seed, 2000)
	type split struct{ shared, unique []float64 }
	var parse, sim, decide, sel, start split
	var advance []float64
	add := func(s *split, shared bool, d time.Duration) {
		if shared {
			s.shared = append(s.shared, float64(d)/1e3)
		} else {
			s.unique = append(s.unique, float64(d)/1e3)
		}
	}
	t0 := time.Now()
	for len(advance) < 100 || time.Since(t0) < window {
		cfg, shared, err := m.next()
		if err != nil {
			return err
		}
		op := int64(m.n)
		sp := tr.begin("sysdsl.parse", op)
		sys, err := sysdsl.Parse(cfg.Topology)
		add(&parse, shared, tr.end(sp))
		if err != nil {
			return err
		}
		sp = tr.begin("core.similarity", op)
		_, err = core.Similarity(sys, core.RuleQ)
		add(&sim, shared, tr.end(sp))
		if err != nil {
			return err
		}
		sched := adversary.Uniform(rand.New(rand.NewSource(cfg.Config.Seed)), sys.NumProcs())
		var h *adversary.Harness
		if cfg.Kind == "select" {
			sp = tr.begin("selection.decide", op)
			_, err = selection.Decide(sys, system.InstrQ, system.SchedFair)
			add(&decide, shared, tr.end(sp))
			if err != nil {
				return err
			}
			sp = tr.begin("selection.select", op)
			prog, _, err := selection.Select(sys, system.InstrQ, system.SchedFair)
			add(&sel, shared, tr.end(sp))
			if err != nil {
				return err
			}
			// The harness simsymd builds for a select session, from the
			// program just built.
			h = &adversary.Harness{
				Sys: sys, Instr: system.InstrQ, Prog: prog, Sched: sched,
				StatePreds: []mc.StatePredicate{mc.UniquenessPred},
				TransPreds: []mc.TransitionPredicate{mc.StabilityPred},
				Done:       selection.Settled,
			}
		} else {
			sp = tr.begin("adversary.dining_harness", op)
			h, err = adversary.NewDiningHarness(sys, 2, sched)
			tr.end(sp)
			if err != nil {
				return err
			}
		}
		sp = tr.begin("adversary.start", op)
		e, err := h.Start()
		add(&start, shared, tr.end(sp))
		if err != nil {
			return err
		}
		for i := 0; i < clientSteps; i++ {
			sp = tr.begin("adversary.advance", op)
			_, err := e.Advance(1)
			advance = append(advance, float64(tr.end(sp))/1e3)
			if err != nil {
				return err
			}
		}
		if v := e.Violation(); v != nil {
			return fmt.Errorf("in-process replay: violation %q", v.Reason)
		}
	}
	for _, x := range []struct {
		name string
		s    split
	}{
		{"sysdsl.%s.parse_us", parse}, {"core.%s.similarity_us", sim},
		{"selection.%s.decide_us", decide}, {"selection.%s.select_us", sel},
		{"adversary.%s.start_us", start},
	} {
		r.layer(fmt.Sprintf(x.name, "shared"), median(x.s.shared))
		r.layer(fmt.Sprintf(x.name, "unique"), median(x.s.unique))
	}
	r.layer("adversary.advance_us", median(advance))
	return nil
}
