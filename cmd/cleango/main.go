// Command cleango points the CLEAN pipeline at real Go source: the
// internal/gofront front end parses a restricted Go subset with go/ast +
// go/types, lowers shared-variable accesses, sync.Mutex, sync.WaitGroup
// and channel operations into the internal/prog IR, and the usual stack
// takes it from there — static analysis, seeded dynamic detection, and
// exhaustive interleaving exploration — with every finding mapped back
// to file:line:column in the original source.
//
// Usage:
//
//	cleango vet file.go            # static verdict with source positions
//	cleango vet -confirm file.go   # ... backed by the machine
//	cleango run file.go            # one seeded run under a detector
//	cleango run -seeds 50 file.go  # outcome census across 50 seeds
//	cleango explore file.go        # (bounded) exhaustive model check
//	cleango lower file.go          # print the lowered IR (CI goldens)
//
// Exit status mirrors cleanvet where a verdict is produced: 0 race-free,
// 2 a race was found (MustRace / race exception), 3 MayRace, 1 on usage
// or front-end errors. Unsupported Go constructs fail loudly with
// positioned diagnostics — cleango never guesses at semantics.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	clean "repro"
	apiv1 "repro/api/v1"
	"repro/internal/explore"
	"repro/internal/gofront"
	"repro/internal/machine"
	"repro/internal/oracle"
	"repro/internal/prog"
	"repro/internal/staticrace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cleango: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "vet":
		cmdVet(os.Args[2:])
	case "run":
		cmdRun(os.Args[2:])
	case "explore":
		cmdExplore(os.Args[2:])
	case "lower":
		cmdLower(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		log.Fatalf("unknown subcommand %q (want vet, run, explore or lower)", os.Args[1])
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: cleango <command> [flags] file.go

commands:
  vet       static race analysis with source-mapped pairs and verdict
  run       one seeded dynamic run (or a census across -seeds seeds)
  explore   enumerate the interleaving space, classify every outcome
  lower     print the canonical IR lowering (for golden diffing)

run 'cleango <command> -h' for the command's flags
`)
	os.Exit(1)
}

// load front-ends the one positional argument of a subcommand.
func load(fs *flag.FlagSet) *gofront.Program {
	if fs.NArg() != 1 {
		log.Fatalf("want exactly one Go source file argument, got %d", fs.NArg())
	}
	p, err := gofront.Load(fs.Arg(0))
	if err != nil {
		var de *gofront.DiagError
		if errors.As(err, &de) {
			for _, d := range de.Diags {
				fmt.Fprintf(os.Stderr, "%s\n", d)
			}
			log.Fatalf("%s: %d unsupported construct(s); cleango fails loudly rather than mis-model Go semantics", fs.Arg(0), len(de.Diags))
		}
		log.Fatal(err)
	}
	return p
}

func printFront(p *gofront.Program) {
	fmt.Printf("source:    %s\n", p.File)
	var vars []string
	for _, v := range p.Vars {
		vars = append(vars, v.Name)
	}
	fmt.Printf("shared:    %d variable(s) [%s], %d lock(s), %d channel(s)\n",
		len(p.Vars), strings.Join(vars, ", "), len(p.Locks), len(p.Chans))
	var workers []string
	for _, w := range p.Workers {
		workers = append(workers, w.Name)
	}
	fmt.Printf("workers:   %s\n", strings.Join(workers, ", "))
	for _, n := range p.Notes {
		fmt.Printf("note:      %s\n", n)
	}
}

func cmdVet(args []string) {
	fs := flag.NewFlagSet("cleango vet", flag.ExitOnError)
	confirm := fs.Bool("confirm", false, "confirm the verdict dynamically (exploration / witness replay)")
	maxruns := fs.Int("maxruns", 200000, "interleaving budget for -confirm exploration")
	jsonOut := fs.String("json", "", "write the analysis as RunReport JSON to this file (- for stdout)")
	fs.Parse(args)
	p := load(fs)

	printFront(p)
	rep := staticrace.Analyze(p.Prog)
	rf, may, must := rep.Counts()
	fmt.Printf("pairs:     %d conflicting (%d MustRace, %d MayRace, %d protected/ordered)\n",
		rf+may+must, must, may, rf)
	for _, pair := range rep.Pairs {
		fmt.Printf("  %v\n", pair)
		fmt.Printf("    %s\n", p.DescribeAccess(pair.A.Thread, pair.A.Index))
		fmt.Printf("    %s\n", p.DescribeAccess(pair.B.Thread, pair.B.Index))
	}
	fmt.Printf("verdict:   %v\n", rep.Verdict())

	if *jsonOut != "" {
		data, err := apiv1.Encode(staticrace.V1Report("go "+p.File, p.Prog, rep))
		if err != nil {
			log.Fatal(err)
		}
		if *jsonOut == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			log.Fatal(err)
		}
	}

	if *confirm && !confirmVerdict(p, rep, *maxruns) {
		os.Exit(1)
	}
	switch rep.Verdict() {
	case staticrace.MustRace:
		os.Exit(2)
	case staticrace.MayRace:
		os.Exit(3)
	}
}

// confirmVerdict backs the static verdict with the machine: a MustRace
// witness schedule must raise a race exception; a RaceFree claim must
// survive (bounded) exploration.
func confirmVerdict(p *gofront.Program, rep *staticrace.Report, maxruns int) bool {
	oracleDet := func() machine.Detector { return oracle.New(oracle.AllRaces) }
	switch rep.Verdict() {
	case staticrace.MustRace:
		first, second, _ := rep.Witness()
		m := machine.New(machine.Config{Detector: oracleDet(), Picker: prog.SequentialPicker(first, second)})
		root, base := p.Prog.Build(m)
		err := m.Run(root)
		var re *machine.RaceError
		if !errors.As(err, &re) {
			fmt.Printf("confirm:   FAILED — witness schedule (%s then %s) raised %v, want a race exception\n",
				workerName(p, first), workerName(p, second), err)
			return false
		}
		fmt.Printf("confirm:   witness schedule (%s then %s) raised the race:\n", workerName(p, first), workerName(p, second))
		printWitness(p, base, re)
		return true
	default:
		res := explore.RunProgram(explore.Options{Detector: oracleDet, MaxRuns: maxruns}, p.Prog, nil)
		scope := "exhaustive"
		if !res.Exhaustive() {
			scope = "bounded"
		}
		excepted := 0
		for _, n := range res.Exceptions {
			excepted += n
		}
		fmt.Printf("confirm:   %s exploration, %d interleavings: %d completed, %d excepted, %d deadlocked\n",
			scope, res.Runs, res.Completed, excepted, res.Deadlocks)
		if rep.Verdict() == staticrace.RaceFree && (excepted > 0 || res.Deadlocks > 0 || res.OtherErrors > 0) {
			fmt.Printf("confirm:   FAILED — statically race-free but the machine disagrees\n")
			return false
		}
		return true
	}
}

// parseDetection maps -det to a detector. Predict is no run or explore
// detector: it records and certifies through cleanvet -go FILE -dynamic.
func parseDetection(name string) clean.Detection {
	d, err := clean.ParseDetection(name)
	if err != nil {
		log.Fatal(err)
	}
	if d == clean.DetectPredict {
		log.Fatal("-det predict is not supported here; predict races with cleanvet -go FILE -dynamic")
	}
	return d
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("cleango run", flag.ExitOnError)
	det := fs.String("det", "clean", "detector: none, clean, fasttrack, tsanlite")
	seed := fs.Int64("seed", 0, "scheduler seed")
	seeds := fs.Int("seeds", 1, "run this many consecutive seeds starting at -seed and print an outcome census")
	detsync := fs.Bool("detsync", false, "enable Kendo deterministic synchronization")
	fs.Parse(args)
	p := load(fs)

	detection := parseDetection(*det)
	cfg, err := clean.NewConfig(clean.WithDetection(detection), clean.WithSeed(*seed), clean.WithDeterministicSync(*detsync))
	if err != nil {
		log.Fatal(err)
	}
	printFront(p)
	fmt.Printf("detector:  %s   deterministic sync: %v\n", *det, *detsync)

	if *seeds <= 1 {
		m := machine.New(machine.Config{Seed: *seed, Detector: cfg.NewDetector(), DetSync: *detsync})
		root, base := p.Prog.Build(m)
		runErr := m.Run(root)
		fmt.Printf("seed:      %d\n", *seed)
		var re *machine.RaceError
		switch {
		case errors.As(runErr, &re):
			printWitness(p, base, re)
			os.Exit(2)
		case runErr != nil:
			fmt.Printf("\nCONTAINED FAILURE: %v\n", runErr)
			os.Exit(3)
		default:
			fmt.Printf("completed without a race exception\n")
		}
		return
	}

	// Census mode: one run per seed, outcomes tallied; the first race's
	// witness is rendered with its source mapping.
	outcomes := map[string]int{}
	var firstRace *machine.RaceError
	var firstBase uint64
	var firstSeed int64
	for s := *seed; s < *seed+int64(*seeds); s++ {
		m := machine.New(machine.Config{Seed: s, Detector: cfg.NewDetector(), DetSync: *detsync})
		root, base := p.Prog.Build(m)
		runErr := m.Run(root)
		var re *machine.RaceError
		switch {
		case errors.As(runErr, &re):
			outcomes[re.Kind.String()+" exception"]++
			if firstRace == nil {
				firstRace, firstBase, firstSeed = re, base, s
			}
		case runErr != nil:
			outcomes["contained failure"]++
		default:
			outcomes["completed"]++
		}
	}
	fmt.Printf("census:    %d seeds starting at %d\n", *seeds, *seed)
	keys := make([]string, 0, len(outcomes))
	for k := range outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-20s × %d\n", k, outcomes[k])
	}
	if firstRace != nil {
		fmt.Printf("first race (seed %d):\n", firstSeed)
		printWitness(p, firstBase, firstRace)
		os.Exit(2)
	}
}

func cmdExplore(args []string) {
	fs := flag.NewFlagSet("cleango explore", flag.ExitOnError)
	maxruns := fs.Int("maxruns", 200000, "interleaving budget")
	det := fs.String("det", "clean", "detector: none, clean, fasttrack, tsanlite")
	fs.Parse(args)
	p := load(fs)

	detection := parseDetection(*det)
	// The explorer enumerates schedules itself; the seed only satisfies
	// the facade's explicit-seed rule and never reaches the scheduler.
	cfg, err := clean.NewConfig(clean.WithDetection(detection), clean.WithSeed(0))
	if err != nil {
		log.Fatal(err)
	}
	printFront(p)
	res := explore.RunProgram(explore.Options{Detector: cfg.NewDetector, MaxRuns: *maxruns}, p.Prog, nil)
	scope := "exhaustive"
	if !res.Exhaustive() {
		scope = fmt.Sprintf("bounded at %d", *maxruns)
	}
	excepted := res.Runs - res.Completed - res.Deadlocks - res.OtherErrors
	fmt.Printf("explored:  %d interleavings (%s)\n", res.Runs, scope)
	fmt.Printf("outcomes:  %d completed, %d excepted, %d deadlocked, %d other\n",
		res.Completed, excepted, res.Deadlocks, res.OtherErrors)
	for kind, n := range res.Exceptions {
		fmt.Printf("  %-4s exceptions × %d\n", kind, n)
	}
	switch {
	case excepted > 0:
		if res.Exhaustive() && res.Completed == 0 {
			fmt.Printf("verdict:   every interleaving races\n")
		} else {
			fmt.Printf("verdict:   a race exists in the interleaving space\n")
		}
		os.Exit(2)
	case res.Exhaustive():
		fmt.Printf("verdict:   race-free over the whole interleaving space\n")
	default:
		fmt.Printf("verdict:   no race in the explored prefix (bounded — not a proof)\n")
	}
}

func cmdLower(args []string) {
	fs := flag.NewFlagSet("cleango lower", flag.ExitOnError)
	fs.Parse(args)
	p := load(fs)
	// Exactly the canonical IR text, so CI can diff it against the pinned
	// goldens in testdata/gosrc/golden/. Notes go to stderr.
	for _, n := range p.Notes {
		fmt.Fprintf(os.Stderr, "note: %s\n", n)
	}
	fmt.Print(p.Prog.String())
}

func workerName(p *gofront.Program, w int) string {
	if w >= 0 && w < len(p.Workers) {
		return p.Workers[w].Name
	}
	return fmt.Sprintf("worker %d", w)
}

// printWitness renders a race exception in source terms: the shared
// variable (by name and declaration site), the racing workers, and the
// source positions of their accesses to that variable.
func printWitness(p *gofront.Program, base uint64, re *machine.RaceError) {
	off := re.Addr - base
	fmt.Printf("\nRACE EXCEPTION: %v\n", re)
	if v := p.VarAt(off, re.Size); v != nil {
		fmt.Printf("  variable:  %s (declared at %s)\n", v.Name, v.Pos)
		fmt.Printf("  racing:    %s\n", accessSites(p, re.TID-1, v))
		fmt.Printf("  earlier:   %s\n", accessSites(p, re.PrevTID-1, v))
	} else {
		fmt.Printf("  variable:  <unmapped offset %d>\n", off)
	}
}

// accessSites lists where a worker touches the variable. The machine's
// race witness carries the address, not the op index, so every touching
// site in that worker is listed; workers are short, so this is precise
// in practice. Machine thread w+1 is worker w (thread 0 is the root).
func accessSites(p *gofront.Program, w int, v *gofront.Var) string {
	if w < 0 || w >= len(p.Workers) {
		return fmt.Sprintf("machine thread %d (root)", w+1)
	}
	var sites []string
	seen := map[string]bool{}
	for i, op := range p.Prog.Threads[w] {
		if op.Kind != prog.Read && op.Kind != prog.Write {
			continue
		}
		if op.Off >= v.Off+uint64(v.Size) || v.Off >= op.Off+uint64(op.Size) {
			continue
		}
		pos, desc := p.OpAt(w, i)
		s := fmt.Sprintf("%s (%s)", pos, desc)
		if !seen[s] {
			seen[s] = true
			sites = append(sites, s)
		}
	}
	if len(sites) == 0 {
		return p.Workers[w].Name
	}
	return fmt.Sprintf("%s at %s", p.Workers[w].Name, strings.Join(sites, "; "))
}
