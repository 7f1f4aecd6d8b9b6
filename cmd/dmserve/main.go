// Command dmserve is the long-running rule-serving tier: it loads an
// optional initial basket file into a mining session, then serves
// HTTP/JSON queries — top-k rules by support,
// confidence or lift, itemset support lookups, per-antecedent
// recommendations — while ingesting appends and deletes through a
// bounded queue. Readers always see a complete, versioned rule set:
// every Maintain publishes an immutable copy-on-write snapshot behind an
// atomic pointer swap (see internal/serve).
//
// Usage:
//
//	dmserve -in baskets.txt -addr 127.0.0.1:8080
//	        [-minsup 0.01 -rulefloor 0.5 -workers 0 -shardcap 1024]
//	        [-maintainafter 256 -maintainevery 2s -queue 1024 -cache 512]
//	        [-data dir -fsync always|interval[=100ms]|never -snapshotevery 4096]
//	        [-dist -distworkers 4 [-distfaults seed=1,err=0.1,timeout=250ms]]
//
// Endpoints:
//
//	GET  /v1/rules?k=10&by=confidence|support|lift&minconf=0.6&antecedent=1,2
//	GET  /v1/support?items=1,2
//	GET  /v1/recommend?items=1,2&k=5
//	GET  /v1/stats        GET /v1/canonical
//	GET  /v1/healthz      GET /v1/readyz
//	POST /v1/append       (body: basket lines)
//	POST /v1/delete?tid=N
//	POST /v1/flush        (drain queue, maintain, publish)
//
// With -data the server is durable: every ingested op is written to a
// checksummed write-ahead log under the directory before it is
// acknowledged (-fsync picks the sync policy; "always" makes
// acknowledged-then-lost impossible even across power loss), snapshots
// bound replay time, and a restart recovers the exact acknowledged
// state — if the directory already holds state, -in is ignored. The
// listen socket opens before recovery; /v1/healthz is green immediately
// while /v1/readyz answers 503 until replay finishes, so load balancers
// can gate traffic honestly during a long recovery. The HTTP server
// carries slow-client (slowloris) read timeouts, and every handler runs
// behind panic-recovery middleware.
//
// The session's full runs count level-wise and keep those counts as the
// maintained totals, so there is no engine to pick. With -dist their scans
// fan out to in-process distributed workers over the encoding transport,
// which keep the store's shards between full runs and receive only dirty
// ones; -distfaults arms the seeded fault injector plus the retry/failover
// layer on top, exactly as in dmine.
// The server prints "listening on http://ADDR" once ready and exits
// cleanly on SIGINT/SIGTERM.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/mining"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := run(ctx, os.Args[1:], os.Stdout, nil)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "dmserve:", err)
	}
	os.Exit(cliutil.ExitCode(err))
}

// run parses flags, builds the server and serves until ctx is cancelled.
// When ready is non-nil it receives the bound HTTP address once the
// listener is up (the e2e test's readiness hook).
func run(ctx context.Context, args []string, stdout io.Writer, ready chan<- string) error {
	fs := cliutil.NewFlagSet("dmserve")
	var (
		in       = fs.String("in", "", "optional initial basket file (one transaction per line)")
		sup      = cliutil.AddSupportFlags(fs)
		workers  = cliutil.AddWorkersFlag(fs)
		shardCap = fs.Int("shardcap", 0, "transactions per store shard (0 = 1024)")
		sf       = cliutil.AddServeFlags(fs)
		dist     = cliutil.AddDistFlags(fs,
			"fan support counting out to the distributed backend (in-process wire-codec transport)")
		faultSpec = cliutil.AddFaultsFlag(fs)
	)
	if err := cliutil.Parse(fs, args); err != nil {
		return err
	}
	faults, err := cliutil.ParseFaults(*faultSpec)
	if err != nil {
		return err
	}
	if faults != nil && !dist.Dist {
		return fmt.Errorf("%w for dmserve: -distfaults requires -dist", cliutil.ErrInvalidFlags)
	}
	fsync, err := cliutil.ParseFsync(sf.Fsync)
	if err != nil {
		return err
	}
	if sf.Data == "" && (fsync.Mode != "always" || fsync.Interval != 0 || sf.SnapshotEvery != 0) {
		return fmt.Errorf("%w for dmserve: -fsync and -snapshotevery require -data", cliutil.ErrInvalidFlags)
	}

	opts := []mining.Option{
		mining.Workers(cliutil.ResolveWorkers(*workers)),
		mining.ShardCap(*shardCap),
	}
	if dist.Dist {
		wn := dist.EffectiveWorkers()
		opts = append(opts, mining.Transport(mining.LocalTransport(wn)))
		fmt.Fprintf(stdout, "distributed: counting over %d in-process workers (wire-codec transport)\n", wn)
		if faults != nil {
			opts = append(opts,
				mining.Retry(mining.RetrySpec{
					MaxAttempts: faults.Attempts,
					CallTimeout: faults.Timeout,
					Backoff:     faults.Backoff,
					MaxBackoff:  faults.MaxBackoff,
					Seed:        faults.Seed,
				}),
				mining.Faults(mining.FaultSpec{
					Seed:           faults.Seed,
					Drop:           faults.Drop,
					Error:          faults.Err,
					Kill:           faults.Kill,
					Delay:          faults.Delay,
					DelayProb:      faults.DelayProb,
					PartitionAfter: faults.Partition,
				}))
			fmt.Fprintf(stdout, "fault injection: seed=%d drop=%.3g err=%.3g kill=%.3g timeout=%s attempts=%d\n",
				faults.Seed, faults.Drop, faults.Err, faults.Kill, faults.Timeout, faults.Attempts)
		}
	}

	var db *mining.DB
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		db, err = mining.ReadBasket(f)
		f.Close()
		if err != nil {
			return err
		}
	}

	// Listen before recovery: a long WAL replay should not look like a
	// dead process. The bootstrap handler answers liveness green and
	// everything else 503 until the real server swaps in.
	ln, err := net.Listen("tcp", sf.Addr)
	if err != nil {
		return err
	}
	var handler atomic.Pointer[http.Handler]
	starting := serve.StartingHandler()
	handler.Store(&starting)
	httpSrv := serve.NewHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*handler.Load()).ServeHTTP(w, r)
	}), serve.HTTPTimeouts{})
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	cfg := serve.Config{
		MinSupport:    sup.MinSup,
		RuleFloor:     sf.RuleFloor,
		QueueSize:     sf.Queue,
		MaintainAfter: sf.MaintainAfter,
		MaintainEvery: sf.MaintainEvery,
		CacheSize:     sf.Cache,
		Options:       opts,
	}
	if sf.Data != "" {
		cfg.DataDir = sf.Data
		cfg.SnapshotEvery = sf.SnapshotEvery
		switch fsync.Mode {
		case "always":
			cfg.Fsync = wal.SyncAlways
		case "never":
			cfg.Fsync = wal.SyncNever
		case "interval":
			cfg.Fsync = wal.SyncInterval
			cfg.FsyncEvery = fsync.Interval
		}
	}
	srv, err := serve.New(db, cfg)
	if err != nil {
		httpSrv.Close()
		return err
	}
	defer srv.Close()
	live := srv.Handler()
	handler.Store(&live)

	v := srv.View()
	fmt.Fprintf(stdout, "dmserve: %d transactions, version %d, %d rules at floor\n",
		v.NumTx(), v.Version(), len(v.Rules()))
	if sf.Data != "" {
		if ops, found := srv.Recovered(); found {
			fmt.Fprintf(stdout, "durable: recovered %d ops from %s (fsync=%s)\n", ops, sf.Data, sf.Fsync)
			if *in != "" {
				fmt.Fprintf(stdout, "durable: -in ignored, %s already holds state\n", sf.Data)
			}
		} else {
			fmt.Fprintf(stdout, "durable: fresh data directory %s (fsync=%s)\n", sf.Data, sf.Fsync)
		}
	}
	fmt.Fprintf(stdout, "listening on http://%s\n", ln.Addr())

	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	<-errc // http.ErrServerClosed from Serve
	fmt.Fprintln(stdout, "dmserve: shut down")
	return nil
}
