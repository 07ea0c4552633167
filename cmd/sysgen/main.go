// Command sysgen emits generated systems in the sysdsl text format (or
// Graphviz DOT), for piping into simlabel / simrun or editing by hand.
//
// Usage:
//
//	sysgen -gen 'dining 5'                  # DSL to stdout
//	sysgen -gen 'ring 7' -mark 0            # mark a processor's init
//	sysgen -gen 'fig3' -format dot          # Graphviz
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"simsym/internal/sysdsl"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sysgen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sysgen", flag.ContinueOnError)
	gen := fs.String("gen", "", "generator directive, e.g. 'ring 5', 'dining 5', 'fig2'")
	mark := fs.Int("mark", -1, "give this processor the initial state \"leader\"")
	format := fs.String("format", "dsl", "output format: dsl or dot")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *gen == "" {
		return fmt.Errorf("need -gen")
	}
	sys, err := sysdsl.Parse("gen " + *gen)
	if err != nil {
		return err
	}
	if *mark >= 0 {
		if *mark >= sys.NumProcs() {
			return fmt.Errorf("-mark %d out of range (%d processors)", *mark, sys.NumProcs())
		}
		sys.ProcInit[*mark] = "leader"
	}
	switch *format {
	case "dsl":
		fmt.Fprint(out, sysdsl.Serialize(sys))
	case "dot":
		fmt.Fprint(out, sysdsl.DOT(sys, *gen))
	default:
		return fmt.Errorf("unknown format %q (want dsl or dot)", *format)
	}
	return nil
}
