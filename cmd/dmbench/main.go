// Command dmbench prints the reproduction's paper-shaped experiment tables
// (internal/experiments) and nothing else; performance of the engine stack
// is measured by the bench/ harness (bench/README.md).
//
// Usage:
//
//	dmbench               # run every experiment at full scale
//	dmbench -quick        # laptop-seconds versions of every experiment
//	dmbench -exp A1,C3    # selected experiments
//	dmbench -list         # list experiment ids and titles
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/experiments"
)

func main() {
	err := run(os.Args[1:])
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "dmbench:", err)
	}
	os.Exit(cliutil.ExitCode(err))
}

func run(args []string) error {
	fs := cliutil.NewFlagSet("dmbench")
	var (
		expFlag   = fs.String("exp", "", "comma-separated experiment ids (default: all)")
		quickFlag = fs.Bool("quick", false, "run reduced workloads")
		listFlag  = fs.Bool("list", false, "list experiments and exit")
	)
	if err := cliutil.Parse(fs, args); err != nil {
		return err
	}
	if *listFlag {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return nil
	}
	scale := experiments.Full
	if *quickFlag {
		scale = experiments.Quick
	}
	selected := experiments.All()
	if *expFlag != "" {
		selected = nil
		for _, id := range strings.Split(*expFlag, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				return fmt.Errorf("%w for dmbench: %v", cliutil.ErrInvalidFlags, err)
			}
			selected = append(selected, e)
		}
	}
	for i, e := range selected {
		if i > 0 {
			fmt.Println()
		}
		if err := e.Run(os.Stdout, scale); err != nil {
			return fmt.Errorf("EXP-%s failed: %w", e.ID, err)
		}
	}
	return nil
}
