package mining

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/assoc"
	"repro/internal/dist"
)

// Defaults applied when the corresponding option is omitted. They are
// pinned by the option tests and the cross-engine defaults table test.
const (
	// DefaultMinSupport is the relative support used when MinSupport is
	// not given.
	DefaultMinSupport = 0.01
	// DefaultAlgorithm shares passes 1 and 2 with Apriori, then finishes
	// level-wise or by pattern growth, whichever the measured C3 favours;
	// results are identical regardless.
	DefaultAlgorithm = "Auto"
	// DefaultShardCap is the per-shard transaction capacity of a
	// session's store when ShardCap is not given.
	DefaultShardCap = 1024
)

// Option configures Mine, MineStream or NewSession. Options are applied
// in order; a later option overrides an earlier one. An invalid value
// surfaces as an error (wrapping ErrBadOption or ErrUnknownAlgorithm)
// from the call the option was passed to, before any mining starts.
type Option func(*config) error

// config is the resolved option set.
type config struct {
	minSupport float64
	algorithm  string
	workers    int
	transport  *TransportSpec
	retry      *RetrySpec
	faults     *FaultSpec
	progress   func(PassStat)
	shardCap   int
}

// newConfig applies opts over the defaults.
func newConfig(opts []Option) (*config, error) {
	cfg := &config{
		minSupport: DefaultMinSupport,
		algorithm:  DefaultAlgorithm,
		workers:    1,
		shardCap:   DefaultShardCap,
	}
	for _, opt := range opts {
		if err := opt(cfg); err != nil {
			return nil, err
		}
	}
	if cfg.transport == nil {
		if cfg.retry != nil {
			return nil, fmt.Errorf("%w: Retry requires Transport (local engines have no calls to retry)", ErrBadOption)
		}
		if cfg.faults != nil {
			return nil, fmt.Errorf("%w: Faults requires Transport (there is no transport to inject faults into)", ErrBadOption)
		}
	}
	return cfg, nil
}

// MinSupport sets the relative minimum support in (0, 1]. Out-of-range
// values are rejected by the engines with ErrBadSupport, exactly like the
// internal call paths, so degenerate behavior cannot diverge between the
// facade and the engines.
func MinSupport(s float64) Option {
	return func(c *config) error {
		c.minSupport = s
		return nil
	}
}

// Workers bounds the goroutines of every counting scan, tree build and
// projection fan-out (count distribution: private per-worker counters
// over contiguous shards, merged after each pass — results are
// byte-identical at any worker count). n == 1 runs serially with no
// goroutines; n == 0 resolves to runtime.GOMAXPROCS(0); negative n is an
// error.
func Workers(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("%w: Workers(%d)", ErrBadOption, n)
		}
		if n == 0 {
			n = runtime.GOMAXPROCS(0)
		}
		c.workers = n
		return nil
	}
}

// Algorithm selects the engine of Mine and MineStream by name — any name
// in Algorithms(). The default "Auto" decides between the engine families
// after pass 2; every engine finds identical itemsets, so the choice moves
// only wall-clock time. A Session validates the name the same way but
// always counts its full runs level-wise: the maintainer keeps those
// passes' counts as its tracked totals.
func Algorithm(name string) Option {
	return func(c *config) error {
		c.algorithm = name
		return nil
	}
}

// Algorithms lists the selectable engine names in registry order.
func Algorithms() []string {
	miners := assoc.Registered()
	out := make([]string, len(miners))
	for i, m := range miners {
		out[i] = m.Name()
	}
	return out
}

// Progress registers a callback invoked after each completed counting
// pass, on the caller's goroutine, inside the mine, between scans (keep it
// fast: the mine waits for it). Sessions report the level-wise counting
// passes of their full runs — the attach and any border-crossing re-mine,
// at the session's tracking support — while purely incremental maintains
// count no pass and report none. Passes a distributed full run served
// locally after losing its cluster carry Degraded.
func Progress(fn func(PassStat)) Option {
	return func(c *config) error {
		c.progress = fn
		return nil
	}
}

// TransportSpec describes how the distributed backend reaches its
// workers. Build one with LocalTransport and apply it with Transport.
type TransportSpec struct {
	workers int
}

// LocalTransport runs n in-process workers fed by channels, with every
// payload encoded and decoded by the dist wire codec — the single-binary
// deployment that still measures true serialization cost. n <= 0 means 1.
func LocalTransport(n int) TransportSpec {
	if n < 1 {
		n = 1
	}
	return TransportSpec{workers: n}
}

// Transport routes mining through the distributed coordinator/worker
// backend over the given transport — the one way into that backend. It
// composes with Algorithm: "Apriori" and "FPGrowth" select the
// distributed counting strategy of the same name, "Auto" or the default
// select distributed Apriori, and any other engine is an error (those
// engines have no distributed form). Coordinator-side fan-outs default
// to the transport's worker count (override with an explicit Workers). A
// Session's full runs count level-wise over the transport whatever the
// Algorithm, syncing the store's shards so only dirty ones re-ship.
// Distributed results are byte-identical to local ones.
func Transport(spec TransportSpec) Option {
	return func(c *config) error {
		c.transport = &spec
		return nil
	}
}

// RetrySpec tunes the distributed backend's fault handling; the zero
// value of each field keeps its default. See Retry.
type RetrySpec struct {
	// MaxAttempts is the total tries per worker call (first attempt
	// included); 0 means 3. 1 disables retries.
	MaxAttempts int
	// CallTimeout is the per-attempt deadline; 0 disables it. An attempt
	// exceeding it counts as a retryable failure.
	CallTimeout time.Duration
	// Backoff is the pause before the second attempt; it doubles per
	// retry (with deterministic jitter) up to MaxBackoff. 0 means 5ms.
	Backoff time.Duration
	// MaxBackoff caps the growth; 0 means 250ms.
	MaxBackoff time.Duration
	// Seed keys the jitter (and pairs with FaultSpec.Seed for replayable
	// schedules); 0 means 1.
	Seed int64
}

// Retry sets the distributed backend's retry policy: per-call deadlines,
// a bounded number of attempts, and capped exponential backoff with
// deterministic jitter. Retries are transparent — a mine that succeeds
// after retries or worker failover returns exactly the bytes a fault-free
// run returns. When every worker is lost the engine degrades to local
// counting instead of failing; the affected passes carry
// PassStat.Degraded. Requires Transport.
func Retry(spec RetrySpec) Option {
	return func(c *config) error {
		if spec.MaxAttempts < 0 || spec.CallTimeout < 0 || spec.Backoff < 0 || spec.MaxBackoff < 0 {
			return fmt.Errorf("%w: Retry(%+v) has negative fields", ErrBadOption, spec)
		}
		c.retry = &spec
		return nil
	}
}

// FaultSpec is a seeded random fault schedule for the distributed
// backend — the public face of the deterministic fault-injection harness
// the chaos tests run on. Drop, Error and Kill are per-call probabilities
// in [0, 1] (cumulative over one draw, so their sum must stay <= 1). See
// Faults.
type FaultSpec struct {
	// Seed keys every draw; the same seed replays the same schedule.
	// 0 means 1.
	Seed int64
	// Drop is the probability a call's reply is swallowed; the call
	// burns its full CallTimeout, so combine with Retry — with no
	// deadline a dropped reply blocks until the context is cancelled.
	Drop float64
	// Error is the probability of a one-shot connection failure.
	Error float64
	// Kill is the probability the worker dies for good (sticky).
	Kill float64
	// Delay is how long a delayed call sleeps, with probability
	// DelayProb; Delay <= 0 disables delays.
	Delay     time.Duration
	DelayProb float64
	// PartitionAfter, when > 0, kills every worker once that many calls
	// have entered the transport — a full partition mid-mine.
	PartitionAfter int
}

// Faults wraps the transport in the deterministic fault injector — the
// tool for rehearsing worker failures against real workloads (dmine and
// dmbench expose it as -distfaults). Completed mines are still exact:
// injected faults are absorbed by retries, failover or local degradation,
// or surface as an error — never as wrong counts. Requires Transport.
func Faults(spec FaultSpec) Option {
	return func(c *config) error {
		for _, p := range []float64{spec.Drop, spec.Error, spec.Kill, spec.DelayProb} {
			if p < 0 || p > 1 {
				return fmt.Errorf("%w: Faults(%+v) has probabilities outside [0, 1]", ErrBadOption, spec)
			}
		}
		if sum := spec.Drop + spec.Error + spec.Kill; sum > 1 {
			return fmt.Errorf("%w: Faults(%+v): Drop+Error+Kill = %v > 1", ErrBadOption, spec, sum)
		}
		if spec.PartitionAfter < 0 {
			return fmt.Errorf("%w: Faults(%+v): negative PartitionAfter", ErrBadOption, spec)
		}
		c.faults = &spec
		return nil
	}
}

// ShardCap sets a session store's per-shard transaction capacity (rounded
// up to a multiple of 64; smaller shards mean finer-grained re-shipping
// to distributed workers, larger ones fewer version stamps — incremental
// maintenance costs the same at any capacity). n == 0 keeps
// DefaultShardCap; negative n is an error. Mine and MineStream ignore it.
func ShardCap(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("%w: ShardCap(%d)", ErrBadOption, n)
		}
		if n == 0 {
			n = DefaultShardCap
		}
		c.shardCap = n
		return nil
	}
}

// buildMiner constructs a fresh engine for one Mine/MineStream call. The
// returned closer is non-nil only for the distributed engine, whose
// transport's worker goroutines it releases; close it when the engine is
// done.
func (c *config) buildMiner() (assoc.Engine, io.Closer, error) {
	if c.transport != nil {
		d, err := c.distributed()
		if err != nil {
			return nil, nil, err
		}
		return d, d, nil
	}
	for _, m := range assoc.Registered() {
		if m.Name() != c.algorithm {
			continue
		}
		m.SetWorkers(c.workers)
		return m, nil, nil
	}
	return nil, nil, c.unknownAlgorithm()
}

// unknownAlgorithm is the error for an Algorithm name not in Algorithms().
func (c *config) unknownAlgorithm() error {
	return fmt.Errorf("%w: %q (want one of %v)", ErrUnknownAlgorithm, c.algorithm, Algorithms())
}

// distributed builds the distributed engine over the configured Transport
// (with Faults and Retry applied); the caller must Close it.
func (c *config) distributed() (*assoc.Distributed, error) {
	engine := ""
	switch c.algorithm {
	case "", "Auto", assoc.DistEngineApriori:
		engine = assoc.DistEngineApriori
	case assoc.DistEngineFPGrowth:
		engine = assoc.DistEngineFPGrowth
	default:
		return nil, fmt.Errorf("%w: Transport supports Algorithm %q or %q, not %q",
			ErrBadOption, assoc.DistEngineApriori, assoc.DistEngineFPGrowth, c.algorithm)
	}
	var t dist.Transport = dist.NewLocalTransport(c.transport.workers, true)
	if c.faults != nil {
		t = dist.NewFaultTransport(t, dist.FaultPlan{
			Seed:           c.faults.Seed,
			Drop:           c.faults.Drop,
			Error:          c.faults.Error,
			Kill:           c.faults.Kill,
			Delay:          c.faults.Delay,
			DelayProb:      c.faults.DelayProb,
			PartitionAfter: c.faults.PartitionAfter,
		})
	}
	// The coordinator-side work (FPGrowth's projection fan-out over
	// the imported forest) defaults to the transport's worker count, so a
	// 4-worker transport parallelises the whole pipeline without a
	// separate Workers option; an explicit Workers(n > 1) overrides.
	workers := c.workers
	if workers <= 1 {
		workers = t.NumWorkers()
	}
	d := &assoc.Distributed{Transport: t, Workers: workers, Engine: engine}
	if c.retry != nil {
		d.Retry = dist.RetryPolicy{
			MaxAttempts: c.retry.MaxAttempts,
			CallTimeout: c.retry.CallTimeout,
			BaseBackoff: c.retry.Backoff,
			MaxBackoff:  c.retry.MaxBackoff,
			Seed:        c.retry.Seed,
		}
	}
	return d, nil
}

// passHook adapts the Progress callback to the engines' hook signature.
func (c *config) passHook() assoc.PassHook {
	if c.progress == nil {
		return nil
	}
	fn := c.progress
	return func(stat assoc.PassStat, _ []assoc.ItemsetCount) {
		fn(PassStat(stat))
	}
}
