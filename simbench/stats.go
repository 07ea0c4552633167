package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// median returns the median of vs (0 for none); vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile reads the nearest-rank q-quantile of vs and the number of
// samples beyond it.
func quantile(vs []float64, q float64) (v float64, beyond int) {
	if len(vs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], len(s) - 1 - i
}

// tailDetail describes a tail percentile's sample support. A tail needs
// at least ten samples beyond it to mean anything.
func tailDetail(n, beyond int) string {
	d := fmt.Sprintf("n=%d, %d beyond", n, beyond)
	if beyond < 10 {
		d += ", TOO FEW SAMPLES BEYOND"
	}
	return d
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sliceRate is the median, over the whole slices of a phase, of the
// operations completed per second in each slice; done holds each
// operation's completion time from the phase's start. A stall that hits a
// few slices moves it less than the phase's mean rate would move. With no
// whole slice it falls back to the mean rate.
func sliceRate(done []time.Duration, elapsed, slice time.Duration) float64 {
	n := int(elapsed / slice)
	if n == 0 {
		return float64(len(done)) / elapsed.Seconds()
	}
	rates := make([]float64, n)
	for _, d := range done {
		if k := int(d / slice); k < n {
			rates[k]++
		}
	}
	for i := range rates {
		rates[i] /= slice.Seconds()
	}
	return median(rates)
}

// rateSlices is how many slices sliceRate cuts a timed window into.
const rateSlices = 10

// timeSetup runs f in reps batches of inner calls, with the reference
// kernel between batches, and returns the median per-call CPU time in
// seconds on the reference core. Batching keeps sub-millisecond set-ups
// measurable; each batch starts after a collection, from the same heap.
func timeSetup(clk *refClock, reps, inner int, f func() error) (float64, error) {
	per := make([]float64, 0, reps)
	clk.tick()
	for r := 0; r < reps; r++ {
		runtime.GC()
		c0 := threadCPU()
		for i := 0; i < inner; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		per = append(per, (threadCPU()-c0).Seconds()/float64(inner))
		clk.tick()
	}
	return median(per) * clk.scale(), nil
}

// Reference timing. The host this benchmark runs on is shared: its
// cores run the same code 30% faster or slower from one minute to the
// next, in CPU time as much as in wall time. Every end-to-end time the
// benchmark reports is therefore scaled to a reference core, by a kernel
// that lives here, so that no change to the program moves it, and that
// runs interleaved with the workload: a time t measured while the kernel
// takes k ms of CPU is reported as t*refKernelMs/k. A program that is
// 10% slower still reads 10% slower; a host that is 10% slower does not.

// refKernelMs is the kernel's CPU time on the reference core, about
// what it takes on a 2-vCPU cloud VM.
const refKernelMs = 20

// refEvery is the least time between two kernel runs inside a phase.
const refEvery = 250 * time.Millisecond

// kernelMem is the kernel's working set. It lives outside the Go heap,
// so the kernel never allocates, never starts a collection and never
// moves the workload's heap goal; it adds a fixed 3 MB to the RSS.
var kernelMem struct {
	xs, table []uint64
	sum       uint64
}

// offHeapWords maps n zeroed words of anonymous memory.
func offHeapWords(n int) []uint64 {
	b, err := syscall.Mmap(-1, 0, 8*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(err)
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
}

// refKernel is a fixed mix of random hash-table inserts, a sort and a
// byte-hashing loop over a megabyte, like the program's own mix of
// hashing, branching and memory traffic.
func refKernel() {
	k := &kernelMem
	if k.xs == nil {
		k.xs = offHeapWords(1 << 17)
		k.table = offHeapWords(1 << 18)
	}
	clear(k.table)
	mask := uint64(len(k.table) - 1)
	x := uint64(88172645463325252)
	for i := range k.xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.xs[i] = x
		for j := x & mask; ; j = (j + 1) & mask {
			if k.table[j] == 0 || k.table[j] == x|1 {
				k.table[j] = x | 1
				break
			}
		}
	}
	slices.Sort(k.xs)
	h := uint64(14695981039346656037)
	for _, b := range unsafe.Slice((*byte)(unsafe.Pointer(&k.xs[0])), 8*len(k.xs)) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	k.sum += h
}

// refClock collects the kernel's CPU times over one phase of a workload.
type refClock struct {
	samples []float64
	last    time.Time
}

// tick times one run of the kernel and returns its CPU time.
func (c *refClock) tick() time.Duration {
	defer onThread()()
	c0 := threadCPU()
	refKernel()
	d := threadCPU() - c0
	c.samples = append(c.samples, ms(d))
	c.last = time.Now()
	return d
}

// tickEvery ticks when refEvery has passed since the last tick and
// returns the kernel's CPU time (0 without a tick). Call it between two
// timed operations, or inside one and take the time it returns out.
func (c *refClock) tickEvery() time.Duration {
	if time.Since(c.last) >= refEvery {
		return c.tick()
	}
	return 0
}

// scale turns a time measured during the phase into reference time.
func (c *refClock) scale() float64 {
	return refKernelMs / median(c.samples)
}

// kernelMs is the median kernel time, printed so that a reader can see
// how fast the host ran.
func (c *refClock) kernelMs() float64 { return median(c.samples) }

// peakRSSMB reads a process's high-water resident set size (VmHWM).
func peakRSSMB(pid string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// oneCore holds the process to one P and returns a function that
// restores the previous setting. The similarity workload runs this way
// and is timed in processCPU: its labelings allocate heavily, and with a
// second P the GC assists its thread pays grow with how far the
// collector on the other core lags, which the reference kernel cannot
// see. On one P all collection work is on the process's one core.
func oneCore() (restore func()) {
	prev := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(prev) }
}

// processCPU is the CPU time, user plus system over all threads, this
// process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// schedCPU is the CPU time the live threads of process pid have used,
// from the scheduler's nanosecond counters in /proc/<pid>/task/*/schedstat.
func schedCPU(pid string) (time.Duration, error) {
	dir := "/proc/" + pid + "/task"
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, t := range tasks {
		raw, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread has exited
		}
		f := strings.Fields(string(raw))
		if len(f) == 0 {
			return 0, fmt.Errorf("malformed %s/%s/schedstat", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

// onThread locks the calling goroutine to its OS thread and returns the
// unlock. The check and sample workloads run this way and time each
// operation in threadCPU.
func onThread() (unlock func()) {
	runtime.LockOSThread()
	return runtime.UnlockOSThread
}

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// threadCPU is the CPU time the calling OS thread has used. On a thread
// locked to the workload's goroutine it counts the workload's own code,
// its GC assists and pauses, and neither the collector's background
// workers, which run concurrently on another core as they would on an
// idle multi-core machine, nor time the host takes the core away.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic(errno)
	}
	return time.Duration(ts.Nano())
}

// resetPeakRSS returns the heap's free pages to the OS and restarts this
// process's high-water RSS from its current RSS (Linux clear_refs), so
// that the next peakRSSMB("self") covers only what follows. The check
// and sample workloads report the median of their operations' own peaks:
// one collection that finishes late, as on a host that took its core
// away mid-mark, then moves one operation's peak and not the figure.
// Where the kernel refuses the reset, each peak is the process's peak so
// far, which is still a peak RSS, only a less steady one.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// rtSample is a snapshot of the Go runtime's GC CPU and allocation
// counters.
type rtSample struct {
	gcCPU, userCPU, allocBytes float64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return rtSample{gcCPU: val(0), userCPU: val(1), allocBytes: val(2)}
}

// gcShare is the GC's share of the CPU the runtime spent between two
// samples (GC plus user code).
func gcShare(a, b rtSample) float64 {
	gc, user := b.gcCPU-a.gcCPU, b.userCPU-a.userCPU
	if gc+user <= 0 {
		return 0
	}
	return gc / (gc + user)
}
