// Command rptrace generates, saves and inspects dynamic traces: the raw
// material of the RpStacks pipeline (paper Figure 8b).
//
// Usage:
//
//	rptrace gen  -app 429.mcf -o mcf.trc [-n 60000] [-warm 180000]
//	rptrace dump -i mcf.trc [-from 0] [-count 20]
//	rptrace stat -i mcf.trc
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: rptrace gen|dump|stat [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "dump":
		err = cmdDump(os.Args[2:])
	case "stat":
		err = cmdStat(os.Args[2:])
	default:
		err = fmt.Errorf("unknown command %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rptrace:", err)
		os.Exit(1)
	}
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	app := fs.String("app", "416.gamess", "workload name")
	out := fs.String("o", "", "output trace file (required)")
	n := fs.Int("n", 60000, "measured µops")
	warm := fs.Int("warm", 0, "warmup µops (default 3x measured)")
	seed := fs.Int64("seed", 42, "workload seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("gen: -o is required")
	}
	prof, ok := workload.ByName(*app)
	if !ok {
		return fmt.Errorf("unknown workload %q", *app)
	}
	if *warm == 0 {
		*warm = workload.DefaultWarmup(*n)
	}
	gen := workload.NewGenerator(prof, *seed)
	warmUOps, uops := gen.MeasuredRegion(*warm, *n)
	tr, err := cpu.RunWarmed(config.Baseline(), gen.CodeLines(), gen.DataLines(), warmUOps, uops)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.Write(f, tr); err != nil {
		return err
	}
	fmt.Printf("%s: %d µops, %d cycles (CPI %.3f) -> %s\n",
		*app, tr.MicroOps(), tr.Cycles, tr.CPI(), *out)
	// The digest is the trace's content address in the rpserved artifact
	// cache, so jobs over this file can be correlated with server metrics.
	fmt.Printf("digest: %s\n", trace.Digest(tr))
	return f.Close()
}

func read(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Read(f)
}

func cmdDump(args []string) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	in := fs.String("i", "", "input trace file (required)")
	from := fs.Int("from", 0, "first µop")
	count := fs.Int("count", 20, "µops to print")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("dump: -i is required")
	}
	tr, err := read(*in)
	if err != nil {
		return err
	}
	hi := *from + *count
	if hi > len(tr.Records) {
		hi = len(tr.Records)
	}
	for i := *from; i < hi; i++ {
		r := &tr.Records[i]
		flags := ""
		if r.SoM {
			flags += "S"
		}
		if r.EoM {
			flags += "E"
		}
		if r.Mispredicted {
			flags += "!"
		}
		fmt.Printf("%7d %-6s %-2s pc=%#x f=%d n=%d d=%d r=%d e=%d p=%d c=%d",
			r.Seq, r.Class, flags, r.PC,
			r.T[trace.SFetch], r.T[trace.SRename], r.T[trace.SDispatch],
			r.T[trace.SReady], r.T[trace.SIssue], r.T[trace.SComplete], r.T[trace.SCommit])
		if r.Class.IsMem() {
			fmt.Printf(" addr=%#x lvl=%s", r.Addr, r.DataLevel)
		}
		fmt.Println()
	}
	return nil
}

func cmdStat(args []string) error {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	in := fs.String("i", "", "input trace file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("stat: -i is required")
	}
	tr, err := read(*in)
	if err != nil {
		return err
	}
	var classes [isa.NumOpClasses]int
	var dServed [mem.NumLevels]int
	mispred := 0
	for i := range tr.Records {
		r := &tr.Records[i]
		classes[r.Class]++
		if r.Class == isa.Load {
			dServed[r.DataLevel]++
		}
		if r.Mispredicted {
			mispred++
		}
	}
	fmt.Printf("µops: %d  macro-ops: %d  cycles: %d  CPI: %.3f\n",
		tr.MicroOps(), tr.MacroOps(), tr.Cycles, tr.CPI())
	fmt.Printf("digest: %s\n", trace.Digest(tr))
	fmt.Printf("mispredicted branches: %d\n", mispred)
	fmt.Println("class mix:")
	for c := isa.OpClass(0); c < isa.NumOpClasses; c++ {
		if classes[c] > 0 {
			fmt.Printf("  %-7s %6d (%.1f%%)\n", c, classes[c],
				100*float64(classes[c])/float64(tr.MicroOps()))
		}
	}
	fmt.Printf("loads served: L1=%d L2=%d Mem=%d\n", dServed[mem.LvlL1], dServed[mem.LvlL2], dServed[mem.LvlMem])
	return nil
}
