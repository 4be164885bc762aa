package main

// The `faults` subcommand: parse a fault-plan file and dump the resolved,
// deterministic fault schedule — which occurrence of each site each rule
// fires on — so an experiment's failure points can be inspected before (or
// instead of) running it.
//
// Usage:
//
//	bandslim-cli faults [-salt N] [-max-occ N] <plan-file|->
//
// -salt selects the shard whose schedule to resolve (a DB salts each
// shard's fault stream with its shard id; a one-shard DB uses salt 0).
// Probabilistic rules resolve through the same seeded RNG the injector uses,
// so the printed schedule is exactly what that run will execute.

import (
	"flag"
	"fmt"
	"io"
	"os"

	"bandslim/internal/fault"
)

func runFaults(args []string) {
	fs := flag.NewFlagSet("faults", flag.ExitOnError)
	salt := fs.Uint64("salt", 0, "injector salt (= shard id; 0 for a one-shard DB)")
	maxOcc := fs.Int("max-occ", 100, "resolve each rule over its first N in-window site occurrences")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: bandslim-cli faults [-salt N] [-max-occ N] <plan-file|->")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	var (
		text []byte
		err  error
	)
	if name := fs.Arg(0); name == "-" {
		text, err = io.ReadAll(os.Stdin)
	} else {
		text, err = os.ReadFile(name)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bandslim-cli: %v\n", err)
		os.Exit(1)
	}
	plan, err := fault.ParsePlan(string(text))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bandslim-cli: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("plan: seed=%d rules=%d salt=%d\n", plan.Seed, len(plan.Rules), *salt)
	schedule := plan.Resolve(*salt, *maxOcc)
	for i, r := range plan.Rules {
		fmt.Printf("rule %d: %s\n", i, fault.FormatRule(r))
		switch {
		case r.At != 0:
			fmt.Printf("  fires at simulated instant (time-armed), not on an occurrence index\n")
		case len(schedule[i]) == 0:
			fmt.Printf("  no firings in the first %d occurrences\n", *maxOcc)
		default:
			fmt.Printf("  fires on occurrence")
			for _, n := range schedule[i] {
				fmt.Printf(" %d", n)
			}
			fmt.Printf(" (of first %d)\n", *maxOcc)
		}
	}
}
