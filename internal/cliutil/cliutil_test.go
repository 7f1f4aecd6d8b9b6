package cliutil

import (
	"errors"
	"flag"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestParseInvalidFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-nosuch"},
		{"-workers", "notanint"},
		{"-minsup"}, // missing value
	} {
		fs := NewFlagSet("assoc")
		fs.SetOutput(io.Discard)
		AddWorkersFlag(fs)
		AddSupportFlags(fs)
		err := Parse(fs, args)
		if !errors.Is(err, ErrInvalidFlags) {
			t.Errorf("Parse(%v): err = %v, want ErrInvalidFlags", args, err)
		}
		if err == nil || !strings.HasPrefix(err.Error(), "invalid flags for assoc: ") {
			t.Errorf("Parse(%v): error text %q lacks the consistent prefix", args, err)
		}
		if ExitCode(err) != 2 {
			t.Errorf("Parse(%v): exit code = %d, want 2", args, ExitCode(err))
		}
	}
}

func TestParseHelp(t *testing.T) {
	fs := NewFlagSet("assoc")
	fs.SetOutput(io.Discard)
	err := Parse(fs, []string{"-h"})
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("err = %v, want flag.ErrHelp", err)
	}
	if ExitCode(err) != 0 {
		t.Errorf("exit code for -h = %d, want 0", ExitCode(err))
	}
}

func TestParseValid(t *testing.T) {
	fs := NewFlagSet("assoc")
	fs.SetOutput(io.Discard)
	workers := AddWorkersFlag(fs)
	sup := AddSupportFlags(fs)
	inc := AddIncrementalFlags(fs)
	dist := AddDistFlags(fs, "dist usage")
	if err := Parse(fs, []string{"-workers", "4", "-minsup", "0.02", "-incremental", "-dist", "-distworkers", "3"}); err != nil {
		t.Fatal(err)
	}
	if *workers != 4 || sup.MinSup != 0.02 || sup.MinConf != 0.5 || !inc.Enabled || !dist.Dist || dist.Workers != 3 {
		t.Errorf("parsed values = %d %v %+v %+v", *workers, sup, inc, dist)
	}
	if ExitCode(nil) != 0 {
		t.Error("nil error should exit 0")
	}
	if ExitCode(errors.New("boom")) != 1 {
		t.Error("plain errors should exit 1")
	}
}

func TestParseFaultsDefaults(t *testing.T) {
	for _, empty := range []string{"", "   "} {
		if f, err := ParseFaults(empty); f != nil || err != nil {
			t.Errorf("ParseFaults(%q) = %+v, %v; want nil, nil", empty, f, err)
		}
	}
	f, err := ParseFaults("drop=0.05")
	if err != nil {
		t.Fatal(err)
	}
	// A schedule with drops would hang by design without a call timeout,
	// so the defaults must always carry one.
	want := FaultSettings{Seed: 1, Drop: 0.05, Attempts: 3,
		Backoff: 2 * time.Millisecond, Timeout: 250 * time.Millisecond}
	if *f != want {
		t.Errorf("ParseFaults defaults = %+v, want %+v", *f, want)
	}
}

func TestParseFaultsFullSpec(t *testing.T) {
	f, err := ParseFaults("seed=7, drop=0.05,err=0.1,kill=0.02,delay=1ms,delayprob=0.1,partition=40,timeout=50ms,attempts=5,backoff=3ms,maxbackoff=20ms")
	if err != nil {
		t.Fatal(err)
	}
	want := FaultSettings{
		Seed: 7, Drop: 0.05, Err: 0.1, Kill: 0.02,
		Delay: time.Millisecond, DelayProb: 0.1, Partition: 40,
		Timeout: 50 * time.Millisecond, Attempts: 5,
		Backoff: 3 * time.Millisecond, MaxBackoff: 20 * time.Millisecond,
	}
	if *f != want {
		t.Errorf("ParseFaults full spec = %+v, want %+v", *f, want)
	}
	if g, err := ParseFaults("error=0.2"); err != nil || g.Err != 0.2 {
		t.Errorf("'error' alias: %+v, %v", g, err)
	}
}

func TestParseFaultsRejects(t *testing.T) {
	for _, spec := range []string{
		"drop",                      // no '='
		"nosuch=1",                  // unknown key
		"drop=abc",                  // not a float
		"drop=1.5",                  // probability out of range
		"kill=-0.1",                 // negative probability
		"drop=0.5,err=0.4,kill=0.3", // probabilities sum past 1
		"delay=fast",                // not a duration
		"partition=-1",              // negative
		"attempts=0",                // below 1
		"timeout=-1ms",              // negative duration
	} {
		f, err := ParseFaults(spec)
		if !errors.Is(err, ErrInvalidFlags) {
			t.Errorf("ParseFaults(%q) = %+v, %v; want ErrInvalidFlags", spec, f, err)
		}
	}
}

func TestAddFaultsFlag(t *testing.T) {
	fs := NewFlagSet("assoc")
	fs.SetOutput(io.Discard)
	spec := AddFaultsFlag(fs)
	if err := Parse(fs, []string{"-distfaults", "seed=3,err=0.1"}); err != nil {
		t.Fatal(err)
	}
	f, err := ParseFaults(*spec)
	if err != nil {
		t.Fatal(err)
	}
	if f.Seed != 3 || f.Err != 0.1 {
		t.Errorf("round-trip = %+v", f)
	}
}

func TestResolveWorkers(t *testing.T) {
	if got := ResolveWorkers(3); got != 3 {
		t.Errorf("ResolveWorkers(3) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := ResolveWorkers(0); got != want {
		t.Errorf("ResolveWorkers(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := ResolveWorkers(-2); got != want {
		t.Errorf("ResolveWorkers(-2) = %d, want GOMAXPROCS %d", got, want)
	}
	d := &DistFlags{Workers: 0}
	if got := d.EffectiveWorkers(); got != want {
		t.Errorf("EffectiveWorkers(0) = %d, want %d", got, want)
	}
}

func TestAddServeFlags(t *testing.T) {
	fs := NewFlagSet("dmserve")
	fs.SetOutput(io.Discard)
	sf := AddServeFlags(fs)
	if err := Parse(fs, nil); err != nil {
		t.Fatal(err)
	}
	if sf.Addr != "127.0.0.1:8080" || sf.MaintainEvery != 2*time.Second {
		t.Errorf("defaults = %+v", sf)
	}
	if sf.MaintainAfter != 0 || sf.Queue != 0 || sf.Cache != 0 || sf.RuleFloor != 0 {
		t.Errorf("zero-means-package-default knobs not zero: %+v", sf)
	}
	if sf.Data != "" || sf.Fsync != "always" || sf.SnapshotEvery != 0 {
		t.Errorf("durability defaults = %+v", sf)
	}

	fs = NewFlagSet("dmserve")
	fs.SetOutput(io.Discard)
	sf = AddServeFlags(fs)
	args := []string{
		"-addr", "0.0.0.0:9999",
		"-maintainafter", "64", "-maintainevery", "500ms",
		"-queue", "32", "-cache", "-1", "-rulefloor", "0.75",
		"-data", "/tmp/dm", "-fsync", "interval=250ms", "-snapshotevery", "128",
	}
	if err := Parse(fs, args); err != nil {
		t.Fatal(err)
	}
	if sf.Addr != "0.0.0.0:9999" ||
		sf.MaintainAfter != 64 || sf.MaintainEvery != 500*time.Millisecond ||
		sf.Queue != 32 || sf.Cache != -1 || sf.RuleFloor != 0.75 ||
		sf.Data != "/tmp/dm" || sf.Fsync != "interval=250ms" || sf.SnapshotEvery != 128 {
		t.Errorf("parsed values = %+v", sf)
	}

	fs = NewFlagSet("dmserve")
	fs.SetOutput(io.Discard)
	AddServeFlags(fs)
	if err := Parse(fs, []string{"-maintainevery", "soon"}); !errors.Is(err, ErrInvalidFlags) {
		t.Errorf("bad duration: err = %v, want ErrInvalidFlags", err)
	}
}

func TestParseFaultsRejectsNaN(t *testing.T) {
	for _, spec := range []string{"drop=NaN", "err=nan", "kill=NaN", "delayprob=NaN"} {
		if _, err := ParseFaults(spec); !errors.Is(err, ErrInvalidFlags) {
			t.Errorf("ParseFaults(%q) = %v, want ErrInvalidFlags", spec, err)
		}
	}
}

func TestParseFsync(t *testing.T) {
	cases := []struct {
		spec string
		want FsyncSetting
	}{
		{"always", FsyncSetting{Mode: "always"}},
		{"never", FsyncSetting{Mode: "never"}},
		{"interval", FsyncSetting{Mode: "interval"}},
		{"interval=250ms", FsyncSetting{Mode: "interval", Interval: 250 * time.Millisecond}},
		{" Interval = 1s ", FsyncSetting{Mode: "interval", Interval: time.Second}},
	}
	for _, c := range cases {
		got, err := ParseFsync(c.spec)
		if err != nil || got != c.want {
			t.Errorf("ParseFsync(%q) = %+v, %v, want %+v", c.spec, got, err, c.want)
		}
	}
	for _, spec := range []string{"", "sometimes", "always=1s", "never=x", "interval=soon", "interval=0s", "interval=-1s"} {
		if _, err := ParseFsync(spec); !errors.Is(err, ErrInvalidFlags) {
			t.Errorf("ParseFsync(%q) = %v, want ErrInvalidFlags", spec, err)
		}
	}
}
