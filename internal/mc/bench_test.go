package mc

import (
	"runtime"
	"testing"

	"simsym/internal/machine"
	"simsym/internal/system"
)

func throughputSetup(b *testing.B) (*system.System, *machine.Program) {
	b.Helper()
	s, err := system.DiningFlipped(4)
	if err != nil {
		b.Fatal(err)
	}
	bl := machine.NewBuilder()
	g1, g2 := bl.Sym("_g1"), bl.Sym("_g2")
	bl.Label("grab1")
	bl.Lock("left", "_g1")
	bl.JumpIf(func(r *machine.Regs) bool { return r.Get(g1) != true }, "grab1")
	bl.Label("grab2")
	bl.Lock("right", "_g2")
	bl.JumpIf(func(r *machine.Regs) bool { return r.Get(g2) != true }, "grab2")
	bl.Unlock("right")
	bl.Unlock("left")
	bl.Halt()
	prog, err := bl.Build()
	if err != nil {
		b.Fatal(err)
	}
	return s, prog
}

func runThroughput(b *testing.B, opts Options) {
	b.Helper()
	s, prog := throughputSetup(b)
	opts.MaxStates = 500_000
	opts.StuckBad = NotAllHalted
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Check(func() (*machine.Machine, error) {
			return machine.New(s, system.InstrL, prog)
		}, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Complete {
			b.Fatal("space should close")
		}
		b.ReportMetric(float64(res.StatesExplored), "states/op")
	}
}

// BenchmarkCheckThroughput measures model-checker state throughput on
// the Figure 5 four-philosopher table in each engine mode: plain BFS,
// symmetry-reduced BFS (orbit quotient), parallel expansion and staging
// over a sharded index, parallel with symmetry reduction, and parallel
// with a spill tier. The parallel rows use at least two workers so they
// exercise the fan-out and staging steps even on a one-core host.
func BenchmarkCheckThroughput(b *testing.B) {
	workers := max(runtime.GOMAXPROCS(0), 2)
	b.Run("seq", func(b *testing.B) { runThroughput(b, Options{}) })
	b.Run("sym", func(b *testing.B) { runThroughput(b, Options{SymmetryReduce: true}) })
	b.Run("par", func(b *testing.B) { runThroughput(b, Options{Workers: workers}) })
	b.Run("sym+par", func(b *testing.B) {
		runThroughput(b, Options{SymmetryReduce: true, Workers: workers})
	})
	b.Run("par+spill", func(b *testing.B) {
		runThroughput(b, Options{Workers: workers, HotIndexBytes: 1 << 20, SpillDir: b.TempDir()})
	})
}
