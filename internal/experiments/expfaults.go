package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/assoc"
	"repro/internal/dist"
	"repro/internal/transactions"
)

// distEngines lists the distributed engine strategies EXP-F1 measures,
// each named by its assoc.Distributed Engine value and paired with the
// local miner its results must equal.
func distEngines() []namedMiner {
	return []namedMiner{
		{assoc.DistEngineApriori, &assoc.Apriori{}},
		{assoc.DistEngineFPGrowth, &assoc.FPGrowth{}},
	}
}

// faultGuardTimeout is the per-attempt deadline the guarded configuration
// measures: generous enough that a fault-free in-process call never trips
// it, so the measured cost is pure bookkeeping (one context.WithTimeout
// per call plus the retry-loop plumbing).
const faultGuardTimeout = 250 * time.Millisecond

// faultOverheadRun is one fault-free engine comparison of EXP-F1: the same
// distributed mine with the retry/timeout machinery off (MaxAttempts 1, no
// deadline — the pre-fault-tolerance coordinator) and on (defaults plus a
// per-call deadline).
type faultOverheadRun struct {
	Engine string
	// BareMillis and GuardedMillis are the fastest of f1OverheadRuns mines
	// with retries disabled, and under the default retry policy with a
	// per-call deadline.
	BareMillis    float64
	GuardedMillis float64
	// OverheadPct is the median of the per-round guarded/bare time ratios,
	// minus one, in percent: what arming the fault-tolerance layer costs
	// when nothing faults. The target is < 5.
	OverheadPct float64
	// Retries and Failovers are the guarded run's coordinator counters —
	// both must be zero on a fault-free transport.
	Retries   int
	Failovers int
}

// faultRecoveryRun is one recovery measurement of EXP-F1: a scripted
// fault transport kills one worker after its first successful call, and
// the mine must fail over and still finish byte-identically.
type faultRecoveryRun struct {
	Engine string
	// Millis is the single-run wall clock with the injected kill;
	// FaultFreeMillis is the same configuration's guarded best time.
	Millis          float64
	FaultFreeMillis float64
	// Retries / Failovers / ShippedShards are the coordinator's counters
	// for the faulted run: the failover and the re-shipped shards show up
	// here.
	Retries       int
	Failovers     int
	ShippedShards int
}

// f1Workers is the worker count both EXP-F1 measurements run at: two
// workers is the smallest cluster where failover has a survivor.
const f1Workers = 2

// f1OverheadRuns is how many interleaved bare/guarded rounds the overhead
// measurement runs. The layer's true cost is a few context.WithTimeout
// calls per pass — far below the GC and scheduler noise of a single
// ~15ms mine — so the comparison pairs each bare run with the guarded
// run timed right after it and takes the median of the per-round ratios:
// a GC cycle landing in one run skews one ratio, not the median.
const f1OverheadRuns = 15

// measureFaultOverhead times one engine bare vs guarded on a fault-free
// transport (interleaved rounds, minimum of each) and byte-checks every
// run against want.
func measureFaultOverhead(db *transactions.DB, engine, want string) (faultOverheadRun, error) {
	run := faultOverheadRun{Engine: engine}
	bare := &assoc.Distributed{
		Transport: dist.NewLocalTransport(f1Workers, true),
		Workers:   f1Workers,
		Engine:    engine,
		// MaxAttempts 1 with no deadline reproduces the coordinator before
		// the fault-tolerance layer existed.
		Retry: dist.RetryPolicy{MaxAttempts: 1},
	}
	defer bare.Close()
	guarded := &assoc.Distributed{
		Transport: dist.NewLocalTransport(f1Workers, true),
		Workers:   f1Workers,
		Engine:    engine,
		Retry:     dist.RetryPolicy{CallTimeout: faultGuardTimeout},
	}
	defer guarded.Close()
	mineOnce := func(d *assoc.Distributed) (time.Duration, error) {
		var res *assoc.Result
		dur, err := timeIt(func() error {
			var merr error
			res, merr = d.Mine(db, engineMinSup)
			return merr
		})
		if err != nil {
			return 0, err
		}
		if string(res.Canonical()) != want {
			return 0, fmt.Errorf("EXP-F1: %s overhead run diverges from the local engine", engine)
		}
		return dur, nil
	}
	var bareBest, guardedBest time.Duration
	ratios := make([]float64, 0, f1OverheadRuns)
	for i := 0; i < f1OverheadRuns; i++ {
		bd, err := mineOnce(bare)
		if err != nil {
			return run, err
		}
		gd, err := mineOnce(guarded)
		if err != nil {
			return run, err
		}
		ratios = append(ratios, float64(gd)/float64(bd))
		if i == 0 || bd < bareBest {
			bareBest = bd
		}
		if i == 0 || gd < guardedBest {
			guardedBest = gd
		}
	}
	sort.Float64s(ratios)
	stats := guarded.Coordinator().Stats()
	run.BareMillis = float64(bareBest.Microseconds()) / 1000.0
	run.GuardedMillis = float64(guardedBest.Microseconds()) / 1000.0
	run.OverheadPct = (ratios[len(ratios)/2] - 1) * 100
	run.Retries, run.Failovers = stats.Retries, stats.Failovers
	return run, nil
}

// measureFaultRecovery times one engine through a scripted worker death:
// worker 1 completes its first call (the shard shipping) and then dies,
// forcing a failover onto worker 0 mid-mine.
func measureFaultRecovery(db *transactions.DB, engine, want string, faultFreeMS float64) (faultRecoveryRun, error) {
	run := faultRecoveryRun{Engine: engine, FaultFreeMillis: faultFreeMS}
	ft := dist.NewFaultTransport(dist.NewLocalTransport(f1Workers, true), dist.FaultPlan{})
	ft.FailNext(1, dist.FaultNone, dist.FaultKill)
	d := &assoc.Distributed{
		Transport: ft,
		Workers:   f1Workers,
		Engine:    engine,
		Retry:     dist.RetryPolicy{CallTimeout: faultGuardTimeout},
	}
	defer d.Close()
	// One timed run, not best-of: the scripted kill is consumed by the
	// first mine, so repeats would measure a fault-free cluster.
	var res *assoc.Result
	dur, err := timeIt(func() error {
		var merr error
		res, merr = d.Mine(db, engineMinSup)
		return merr
	})
	if err != nil {
		return run, err
	}
	if string(res.Canonical()) != want {
		return run, fmt.Errorf("EXP-F1: %s recovery run diverges from the local engine", engine)
	}
	stats := d.Coordinator().Stats()
	if stats.Failovers < 1 {
		return run, fmt.Errorf("EXP-F1: %s recovery run recorded no failover — the scripted kill missed", engine)
	}
	run.Millis = float64(dur.Microseconds()) / 1000.0
	run.Retries, run.Failovers, run.ShippedShards = stats.Retries, stats.Failovers, stats.ShippedShards
	return run, nil
}

// measureFaults runs EXP-F1: for each distributed engine at two workers,
// the fault-free cost of arming retries and deadlines (bare vs guarded,
// byte-identity-checked), then the time to recover from one scripted
// worker death.
func measureFaults(s Scale) (fixture string, overhead []faultOverheadRun, recovery []faultRecoveryRun, err error) {
	db, fixture, err := engineFixture(s)
	if err != nil {
		return "", nil, nil, err
	}
	for _, eng := range distEngines() {
		localRes, err := eng.Miner.Mine(db, engineMinSup)
		if err != nil {
			return "", nil, nil, err
		}
		want := string(localRes.Canonical())
		over, err := measureFaultOverhead(db, eng.Name, want)
		if err != nil {
			return "", nil, nil, err
		}
		overhead = append(overhead, over)
		rec, err := measureFaultRecovery(db, eng.Name, want, over.GuardedMillis)
		if err != nil {
			return "", nil, nil, err
		}
		recovery = append(recovery, rec)
	}
	return fixture, overhead, recovery, nil
}

// RunF1 prints the fault-tolerance experiment as two tables: the
// fault-free overhead of arming the retry layer, then the recovery cost
// of one worker death.
func RunF1(w io.Writer, s Scale) error {
	header(w, "F1", "fault tolerance: fault-free overhead and failover recovery")
	fixture, overhead, recovery, err := measureFaults(s)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%s at minsup %.4f (GOMAXPROCS=%d, %d workers)\n",
		fixture, engineMinSup, runtime.GOMAXPROCS(0), f1Workers)
	fmt.Fprintf(w, "%-12s%12s%12s%12s%10s%10s\n",
		"engine", "bare ms", "guarded ms", "overhead%", "retries", "failovers")
	for _, r := range overhead {
		fmt.Fprintf(w, "%-12s%12.1f%12.1f%12.2f%10d%10d\n",
			r.Engine, r.BareMillis, r.GuardedMillis, r.OverheadPct, r.Retries, r.Failovers)
	}
	fmt.Fprintf(w, "\nrecovery from one worker death (scripted kill after the first call)\n")
	fmt.Fprintf(w, "%-12s%12s%14s%10s%10s%10s%10s\n",
		"engine", "ms", "fault-free ms", "slowdown", "retries", "failovers", "shipped")
	for _, r := range recovery {
		fmt.Fprintf(w, "%-12s%12.1f%14.1f%10.2f%10d%10d%10d\n",
			r.Engine, r.Millis, r.FaultFreeMillis, r.Millis/r.FaultFreeMillis,
			r.Retries, r.Failovers, r.ShippedShards)
	}
	fmt.Fprintln(w, "\nnote: overhead% is the fault-free cost of the retry/deadline layer (target < 5); "+
		"slowdown is one scripted worker death absorbed by failover, against the guarded fault-free time; "+
		"every run byte-identity-checked against the local engine")
	return nil
}
