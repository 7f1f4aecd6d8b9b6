// Package cliutil holds the flag plumbing cmd/dmine, cmd/dmserve and
// cmd/dmbench share: a Parse/ExitCode pair that makes every invalid-flag
// path exit nonzero with consistent error text instead of whatever each
// FlagSet improvised, and the mining flag groups of cmd/dmine and
// cmd/dmserve (workers, support, incremental, distributed, fault
// injection) registered with one help text and one resolution rule. The
// distributed and fault-injection flags become mining options in one
// place, DistFlags.Options.
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/mining"
)

// ErrInvalidFlags wraps every flag-parse failure Parse reports; commands
// test for it with errors.Is and exit with code 2.
var ErrInvalidFlags = errors.New("invalid flags")

// NewFlagSet returns a FlagSet wired for Parse: ContinueOnError (so
// failures return instead of exiting mid-library) with usage printed to
// stderr.
func NewFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	return fs
}

// Parse parses args with fs. On failure the flag package has already
// printed the specific problem and the usage to fs's output; the returned
// error wraps ErrInvalidFlags with the flag-set name, so every command
// reports "invalid flags for <cmd>: <reason>" and exits nonzero. -h/-help
// returns flag.ErrHelp unchanged (commands exit 0).
func Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w for %s: %v", ErrInvalidFlags, fs.Name(), err)
	}
	return nil
}

// ExitCode maps a command's top-level error to its process exit code:
// 0 for success or -h, 2 for invalid flags, 1 for everything else.
func ExitCode(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, ErrInvalidFlags):
		return 2
	default:
		return 1
	}
}

// AddWorkersFlag registers the shared -workers flag: counting-scan
// goroutines for engines that support count distribution, default 1
// (serial), 0 meaning GOMAXPROCS. Resolve with ResolveWorkers.
func AddWorkersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", 1,
		"counting-scan goroutines for miners that support count distribution; 0 means GOMAXPROCS")
}

// ResolveWorkers applies the CLI-wide convention: n <= 0 resolves to
// runtime.GOMAXPROCS(0).
func ResolveWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// SupportFlags are the shared mining thresholds.
type SupportFlags struct {
	MinSup  float64
	MinConf float64
}

// AddSupportFlags registers -minsup and -minconf with the shared
// defaults. Range validation stays with the engines (ErrBadSupport /
// ErrBadConfidence), so CLI and API errors cannot diverge.
func AddSupportFlags(fs *flag.FlagSet) *SupportFlags {
	s := &SupportFlags{}
	fs.Float64Var(&s.MinSup, "minsup", 0.01, "minimum relative support in (0, 1]")
	fs.Float64Var(&s.MinConf, "minconf", 0.5, "minimum rule confidence in (0, 1]")
	return s
}

// IncrementalFlags are the incremental-maintenance flags.
type IncrementalFlags struct {
	Enabled  bool
	Updates  string
	ShardCap int
	Verify   bool
}

// AddIncrementalFlags registers -incremental, -updates, -shardcap and
// -verify.
func AddIncrementalFlags(fs *flag.FlagSet) *IncrementalFlags {
	f := &IncrementalFlags{}
	fs.BoolVar(&f.Enabled, "incremental", false,
		"mine through the incremental maintenance backend (counts only each update's delta)")
	fs.StringVar(&f.Updates, "updates", "",
		"incremental: update script ('+ items…' append, '- tid' delete, '=' re-maintain)")
	fs.IntVar(&f.ShardCap, "shardcap", 0,
		"incremental: transactions per shard (rounded up to a multiple of 64; 0 = 1024)")
	fs.BoolVar(&f.Verify, "verify", false,
		"incremental: check each maintained result is byte-identical to a from-scratch run")
	return f
}

// DistFlags are the distributed-backend flags.
type DistFlags struct {
	Dist    bool
	Workers int

	cmd string // the flag set's name, for error text
}

// AddDistFlags registers -dist with the given usage and -distworkers, the
// in-process transport's worker count.
func AddDistFlags(fs *flag.FlagSet, distUsage string) *DistFlags {
	d := &DistFlags{cmd: fs.Name()}
	fs.BoolVar(&d.Dist, "dist", false, distUsage)
	fs.IntVar(&d.Workers, "distworkers", 0,
		"distributed: worker count for the in-process transport; 0 means GOMAXPROCS")
	return d
}

// EffectiveWorkers resolves -distworkers: <= 0 means GOMAXPROCS.
func (d *DistFlags) EffectiveWorkers() int { return ResolveWorkers(d.Workers) }

// Options maps -dist and a parsed -distfaults onto the mining options
// that reach the distributed backend: Transport over EffectiveWorkers
// in-process workers, plus Retry and Faults when faults is non-nil. With
// -dist off it returns no options, or an error wrapping ErrInvalidFlags
// when faults is non-nil, since -distfaults requires -dist.
func (d *DistFlags) Options(faults *FaultSettings) ([]mining.Option, error) {
	if !d.Dist {
		if faults != nil {
			return nil, fmt.Errorf("%w for %s: -distfaults requires -dist", ErrInvalidFlags, d.cmd)
		}
		return nil, nil
	}
	opts := []mining.Option{mining.Transport(mining.LocalTransport(d.EffectiveWorkers()))}
	if faults != nil {
		opts = append(opts, mining.Retry(faults.Retry), mining.Faults(faults.Faults))
	}
	return opts, nil
}

// ServeFlags are cmd/dmserve's serving-tier flags: the listen address,
// the ingest/maintenance pacing knobs of internal/serve, and the
// durability knobs (data directory, fsync policy, snapshot cadence).
type ServeFlags struct {
	Addr          string
	MaintainAfter int
	MaintainEvery time.Duration
	Queue         int
	Cache         int
	RuleFloor     float64
	Data          string
	Fsync         string
	SnapshotEvery int
}

// AddServeFlags registers -addr, -maintainafter, -maintainevery, -queue,
// -cache, -rulefloor, -data, -fsync and -snapshotevery with dmserve's
// defaults (0 values defer to internal/serve's documented defaults).
func AddServeFlags(fs *flag.FlagSet) *ServeFlags {
	f := &ServeFlags{}
	fs.StringVar(&f.Addr, "addr", "127.0.0.1:8080", "HTTP listen address")
	fs.IntVar(&f.MaintainAfter, "maintainafter", 0,
		"ops between maintains (dirty threshold; 0 = 256)")
	fs.DurationVar(&f.MaintainEvery, "maintainevery", 2*time.Second,
		"additional timer-based maintain interval (0 = no timer)")
	fs.IntVar(&f.Queue, "queue", 0, "bounded ingest queue size (0 = 1024)")
	fs.IntVar(&f.Cache, "cache", 0, "query result cache entries (0 = 512; negative disables)")
	fs.Float64Var(&f.RuleFloor, "rulefloor", 0,
		"confidence floor of the published rule set in (0, 1] (0 = 0.5)")
	fs.StringVar(&f.Data, "data", "",
		"durable data directory: WAL + snapshots, crash recovery on start (empty = in-memory only)")
	fs.StringVar(&f.Fsync, "fsync", "always",
		"WAL fsync policy with -data: 'always' (sync before ack), 'interval[=100ms]' (timer), 'never' (page cache)")
	fs.IntVar(&f.SnapshotEvery, "snapshotevery", 0,
		"ops between WAL snapshots with -data (0 = 4096; negative disables)")
	return f
}

// FsyncSetting is a parsed -fsync value. Mode is one of "always",
// "interval" or "never"; Interval is the timer period when Mode is
// "interval" (0 = the serving tier's default). cliutil stays free of an
// internal/wal dependency, so the command maps Mode onto wal.SyncPolicy.
type FsyncSetting struct {
	Mode     string
	Interval time.Duration
}

// ParseFsync parses a -fsync policy: "always", "never", "interval", or
// "interval=<duration>" for an explicit sync period.
func ParseFsync(spec string) (FsyncSetting, error) {
	mode, val, hasVal := strings.Cut(strings.TrimSpace(spec), "=")
	mode = strings.ToLower(strings.TrimSpace(mode))
	switch mode {
	case "always", "never":
		if hasVal {
			return FsyncSetting{}, fmt.Errorf("%w: -fsync %q: %q takes no value", ErrInvalidFlags, spec, mode)
		}
		return FsyncSetting{Mode: mode}, nil
	case "interval":
		f := FsyncSetting{Mode: mode}
		if hasVal {
			d, err := time.ParseDuration(strings.TrimSpace(val))
			if err != nil {
				return FsyncSetting{}, fmt.Errorf("%w: -fsync %q: %v", ErrInvalidFlags, spec, err)
			}
			if d <= 0 {
				return FsyncSetting{}, fmt.Errorf("%w: -fsync %q: interval must be positive", ErrInvalidFlags, spec)
			}
			f.Interval = d
		}
		return f, nil
	default:
		return FsyncSetting{}, fmt.Errorf("%w: -fsync %q: want always, never, or interval[=duration]", ErrInvalidFlags, spec)
	}
}

// AddFaultsFlag registers -distfaults, the reproducible fault-injection
// schedule cmd/dmine and cmd/dmserve accept. Parse the value with ParseFaults.
func AddFaultsFlag(fs *flag.FlagSet) *string {
	return fs.String("distfaults", "",
		"distributed: seeded fault-injection schedule, e.g. 'seed=7,drop=0.05,err=0.1,kill=0.02,delay=1ms,delayprob=0.1,partition=40,timeout=250ms,attempts=3,backoff=2ms'")
}

// FaultSettings is a parsed -distfaults value: the injection schedule
// (seed, probabilities, delay, partition) plus the retry policy that
// makes it survivable (timeout, attempts, backoff), held as the mining
// specs DistFlags.Options applies. Both carry the schedule's seed.
type FaultSettings struct {
	Faults mining.FaultSpec
	Retry  mining.RetrySpec
}

// ParseFaults parses a -distfaults schedule: comma-separated key=value
// pairs. Keys: seed (int), drop/err/kill/delayprob (probability in
// [0, 1]), delay/timeout/backoff/maxbackoff (Go durations), partition
// (calls before a full partition), attempts (tries per call). Unset keys
// default to seed=1, attempts=3, backoff=2ms, timeout=250ms — a timeout
// always applies because a schedule with drops would otherwise hang by
// design. An empty spec returns (nil, nil): fault injection off.
func ParseFaults(spec string) (*FaultSettings, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	f := &FaultSettings{
		Faults: mining.FaultSpec{Seed: 1},
		Retry:  mining.RetrySpec{MaxAttempts: 3, Backoff: 2 * time.Millisecond, CallTimeout: 250 * time.Millisecond},
	}
	bad := func(kv string, err error) error {
		return fmt.Errorf("%w: -distfaults %q: %v", ErrInvalidFlags, kv, err)
	}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, bad(kv, errors.New("want key=value"))
		}
		var err error
		switch strings.ToLower(strings.TrimSpace(key)) {
		case "seed":
			f.Faults.Seed, err = strconv.ParseInt(val, 10, 64)
		case "drop":
			f.Faults.Drop, err = parseProb(val)
		case "err", "error":
			f.Faults.Error, err = parseProb(val)
		case "kill":
			f.Faults.Kill, err = parseProb(val)
		case "delayprob":
			f.Faults.DelayProb, err = parseProb(val)
		case "delay":
			f.Faults.Delay, err = time.ParseDuration(val)
		case "timeout":
			f.Retry.CallTimeout, err = time.ParseDuration(val)
		case "backoff":
			f.Retry.Backoff, err = time.ParseDuration(val)
		case "maxbackoff":
			f.Retry.MaxBackoff, err = time.ParseDuration(val)
		case "partition":
			f.Faults.PartitionAfter, err = strconv.Atoi(val)
		case "attempts":
			f.Retry.MaxAttempts, err = strconv.Atoi(val)
		default:
			return nil, bad(kv, errors.New("unknown key"))
		}
		if err != nil {
			return nil, bad(kv, err)
		}
	}
	plan, retry := f.Faults, f.Retry
	if sum := plan.Drop + plan.Error + plan.Kill; sum > 1 {
		return nil, fmt.Errorf("%w: -distfaults: drop+err+kill = %v > 1", ErrInvalidFlags, sum)
	}
	if retry.MaxAttempts < 1 || plan.PartitionAfter < 0 || retry.CallTimeout < 0 || plan.Delay < 0 || retry.Backoff < 0 || retry.MaxBackoff < 0 {
		return nil, fmt.Errorf("%w: -distfaults: negative or zero values where positive ones are required", ErrInvalidFlags)
	}
	f.Retry.Seed = plan.Seed
	return f, nil
}

// parseProb parses a probability and range-checks it into [0, 1]. The
// inverted comparison also rejects NaN, which would slip through a
// `p < 0 || p > 1` check and corrupt every downstream probability sum.
func parseProb(val string) (float64, error) {
	p, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if !(p >= 0 && p <= 1) {
		return 0, fmt.Errorf("probability %v outside [0, 1]", p)
	}
	return p, nil
}
