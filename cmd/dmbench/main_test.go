package main

import (
	"errors"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/experiments"
)

// The heavy lifting is tested in internal/experiments; here only the
// registry wiring the CLI depends on.
func TestRegistryNonEmpty(t *testing.T) {
	all := experiments.All()
	if len(all) < 10 {
		t.Fatalf("experiments = %d", len(all))
	}
	for _, e := range all {
		if e.Run == nil {
			t.Errorf("experiment %s has no Run", e.ID)
		}
		if _, err := experiments.ByID(e.ID); err != nil {
			t.Errorf("ByID(%s): %v", e.ID, err)
		}
	}
}

func TestInvalidFlagsExitNonzero(t *testing.T) {
	for _, args := range [][]string{
		{"-nosuch"},
		{"-exp", "NOPE"},
		// One per retired flag family: a stale script must fail loudly,
		// not silently run every table.
		{"-paralleljson", "x"},
		{"-dist"},
		{"-distfaults", "seed=1"},
		{"-workers", "2"},
	} {
		err := run(args)
		if !errors.Is(err, cliutil.ErrInvalidFlags) {
			t.Errorf("run(%v): err = %v, want ErrInvalidFlags", args, err)
		}
		if cliutil.ExitCode(err) != 2 {
			t.Errorf("run(%v): exit code = %d, want 2", args, cliutil.ExitCode(err))
		}
	}
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("-list: %v", err)
	}
}
