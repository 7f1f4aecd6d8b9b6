package mining

import (
	"context"
	"iter"

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
// are still to be counted. The mine runs on the caller's goroutine and
// each level is yielded from inside it, between scans: the engine waits
// while the consumer holds a level — natural backpressure — and breaking
// out of the loop cancels the rest of the mine. Nothing is left running
// when the sequence returns, whether the loop ends, breaks or panics.
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

		// Every engine calls its hook on this goroutine while no scan
		// runs, so the hook may yield. Once the consumer stops, the mine
		// is cancelled and its ctx.Err() dropped: nothing is yielded again.
		nextK, stopped := 1, false
		progress := cfg.passHook()
		m.SetPassHook(func(stat assoc.PassStat, level []assoc.ItemsetCount) {
			if progress != nil {
				progress(stat, level)
			}
			// Only in-order final levels stream early; the rest are read
			// from the Result.
			if stopped || len(level) == 0 || stat.K != nextK {
				return
			}
			if !yield(Level{K: stat.K, Itemsets: convertLevel(level)}, nil) {
				stopped = true
				cancel()
				return
			}
			nextK++
		})
		res, err := m.MineContext(ctx, db.unwrap(), cfg.minSupport)
		if stopped {
			return
		}
		if err != nil {
			yield(Level{}, err)
			return
		}
		for k := nextK; k <= len(res.Levels); k++ {
			level := res.Levels[k-1]
			if len(level) == 0 {
				continue
			}
			if !yield(Level{K: k, Itemsets: convertLevel(level)}, nil) {
				return
			}
		}
	}
}
