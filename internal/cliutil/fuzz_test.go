package cliutil

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseFaults drives the -distfaults k=v parser with arbitrary
// specs: it must never panic, every rejection must wrap ErrInvalidFlags
// (so commands exit 2, not crash), every accepted schedule must satisfy
// the documented invariants, and parsing must be deterministic.
func FuzzParseFaults(f *testing.F) {
	seeds := []string{
		"",
		"   ",
		"seed=7",
		"seed=7,drop=0.05,err=0.1,kill=0.02",
		"delay=1ms,delayprob=0.1,partition=40",
		"timeout=250ms,attempts=3,backoff=2ms,maxbackoff=50ms",
		"ERR=0.5",
		"error=1",
		"drop=0.4,err=0.4,kill=0.4",
		"drop=-0.1",
		"drop=NaN",
		"drop=1e300",
		"seed=notanumber",
		"seed=9223372036854775808",
		"delay=-1ms",
		"delay=500",
		"attempts=0",
		"partition=-1",
		"bogus=1",
		"seed",
		"=7",
		"seed=7,,err=0.1",
		"seed=7, err = 0.1 ",
		"timeout=1h2m3s",
		"drop=0.5,drop=0.1",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		got, err := ParseFaults(spec)
		if err != nil {
			if !errors.Is(err, ErrInvalidFlags) {
				t.Fatalf("rejection %v does not wrap ErrInvalidFlags", err)
			}
			if got != nil {
				t.Fatal("rejection returned a non-nil schedule")
			}
			return
		}
		if strings.TrimSpace(spec) == "" {
			if got != nil {
				t.Fatalf("blank spec returned %+v, want nil", got)
			}
			return
		}
		if got == nil {
			t.Fatal("accepted non-blank spec returned nil")
		}
		// Documented invariants of an accepted schedule.
		plan, retry := got.Faults, got.Retry
		for name, p := range map[string]float64{
			"drop": plan.Drop, "err": plan.Error, "kill": plan.Kill, "delayprob": plan.DelayProb,
		} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("accepted %s=%v outside [0, 1]", name, p)
			}
		}
		if sum := plan.Drop + plan.Error + plan.Kill; sum > 1 {
			t.Fatalf("accepted drop+err+kill=%v > 1", sum)
		}
		if retry.MaxAttempts < 1 {
			t.Fatalf("accepted attempts=%d < 1", retry.MaxAttempts)
		}
		if plan.PartitionAfter < 0 || retry.CallTimeout < 0 || plan.Delay < 0 || retry.Backoff < 0 || retry.MaxBackoff < 0 {
			t.Fatalf("accepted negative durations/counts: %+v", got)
		}
		// Parsing is deterministic: the same spec parses to the same
		// schedule.
		again, err := ParseFaults(spec)
		if err != nil || !reflect.DeepEqual(got, again) {
			t.Fatalf("re-parse diverged: %+v vs %+v (err %v)", got, again, err)
		}
	})
}
