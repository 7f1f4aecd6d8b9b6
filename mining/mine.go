package mining

import (
	"context"
	"iter"
	"sync"

	"repro/internal/assoc"
)

// Mine finds all itemsets with relative support >= the MinSupport option
// over db, using the engine the Algorithm option selects. It blocks until
// the result is complete, ctx is cancelled (returning ctx.Err() promptly,
// with no goroutines left behind), or the input is degenerate — an empty
// db or an out-of-range support returns the usual sentinel error together
// with a usable empty Result, exactly like the internal call paths.
func Mine(ctx context.Context, db *DB, opts ...Option) (*Result, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	m, closer, err := cfg.buildMiner()
	if err != nil {
		return nil, err
	}
	if closer != nil {
		defer closer.Close()
	}
	m.SetPassHook(cfg.passHook())
	res, err := m.MineContext(ctx, db.unwrap(), cfg.minSupport)
	return wrapResult(res), err
}

// Level is one streamed result level: the frequent K-itemsets in
// lexicographic order, exactly the slice Result.Level(K) would return.
type Level struct {
	K        int
	Itemsets []ItemsetCount
}

// MineStream is Mine with incremental delivery: the returned sequence
// yields each completed level (K = 1, 2, ...) as soon as the engine
// finalises it, so a consumer can act on short itemsets while longer ones
// are still being counted. The engine blocks while the consumer holds a
// level — natural backpressure — and breaking out of the loop cancels the
// rest of the mine and releases every goroutine.
//
// Streaming granularity is engine-dependent: the level-wise engines yield
// per completed pass, while engines that assemble levels at the end
// (FPGrowth, Eclat) yield everything once mining finishes. The
// concatenation of the yielded levels is always byte-identical to Mine's
// result. Errors — including ctx cancellation and the degenerate-input
// sentinels — arrive as the final yielded element with a zero Level.
func MineStream(ctx context.Context, db *DB, opts ...Option) iter.Seq2[Level, error] {
	return func(yield func(Level, error) bool) {
		cfg, err := newConfig(opts)
		if err != nil {
			yield(Level{}, err)
			return
		}
		m, closer, err := cfg.buildMiner()
		if err != nil {
			yield(Level{}, err)
			return
		}
		if closer != nil {
			defer closer.Close()
		}
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()

		type event struct {
			k     int
			level []assoc.ItemsetCount
		}
		events := make(chan event)
		stop := make(chan struct{})
		var stopOnce sync.Once
		progress := cfg.passHook()
		m.SetPassHook(func(stat assoc.PassStat, level []assoc.ItemsetCount) {
			if progress != nil {
				progress(stat, level)
			}
			if len(level) == 0 {
				return // not final at this point; the Result has it
			}
			select {
			case events <- event{stat.K, level}:
			case <-stop:
			}
		})
		type outcome struct {
			res *assoc.Result
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := m.MineContext(ctx, db.unwrap(), cfg.minSupport)
			done <- outcome{res, err}
			close(events)
		}()
		// abort unblocks a hook mid-send, cancels the engine, and drains
		// the event channel until the mining goroutine closes it.
		abort := func() {
			stopOnce.Do(func() { close(stop) })
			cancel()
			for range events { //nolint:revive // draining until close
			}
		}

		nextK := 1
		for ev := range events {
			if ev.k != nextK {
				continue // defensive: only in-order levels stream early
			}
			if !yield(Level{K: ev.k, Itemsets: convertLevel(ev.level)}, nil) {
				abort()
				return
			}
			nextK++
		}
		out := <-done
		if out.err != nil {
			yield(Level{}, out.err)
			return
		}
		for k := nextK; k <= len(out.res.Levels); k++ {
			level := out.res.Levels[k-1]
			if len(level) == 0 {
				continue
			}
			if !yield(Level{K: k, Itemsets: convertLevel(level)}, nil) {
				return
			}
		}
	}
}
