// Market-basket analysis: the tutorial's motivating retail scenario,
// driven through the public mining API. A synthetic store's transaction
// log is mined with every registered engine (verifying they agree
// byte-for-byte), then the analysis itself uses the default "Auto"
// dispatch — which becomes Apriori, bitset Eclat or FPGrowth from what its
// own first passes measured, with no probe of its own — with the streamed
// variant emitting levels as they finish, before extracting high-lift
// cross-sell rules, the workflow of Agrawal & Srikant's evaluation.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/assoc"
	"repro/internal/synth"
	"repro/mining"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	// A season of baskets: 5000 transactions, ~12 items each, drawn from
	// 40 co-purchase patterns over a 300-product catalogue.
	raw, err := synth.Baskets(synth.BasketConfig{
		NumTransactions: 5000,
		AvgTxSize:       12,
		AvgPatternSize:  4,
		NumPatterns:     40,
		NumItems:        300,
		CorruptionMean:  0.35,
		CorruptionSD:    0.1,
		CorrelationMean: 0.5,
		Seed:            2024,
	})
	if err != nil {
		return err
	}
	rows := make([][]int, raw.Len())
	for i, tx := range raw.Transactions {
		rows[i] = tx
	}
	db, err := mining.NewDB(rows)
	if err != nil {
		return err
	}
	const minSupport = 0.02
	fmt.Printf("catalogue of %d products, %d baskets, minimum support %.0f%%\n\n",
		db.NumItems(), db.Len(), minSupport*100)

	// Every engine must find byte-identical frequent itemsets; time them all.
	var reference []byte
	fmt.Printf("%-16s%10s%12s\n", "algorithm", "time", "itemsets")
	for _, name := range mining.Algorithms() {
		start := time.Now()
		res, err := mining.Mine(ctx, db, mining.Algorithm(name), mining.MinSupport(minSupport))
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		if reference == nil {
			reference = res.Canonical()
		} else if string(res.Canonical()) != string(reference) {
			return fmt.Errorf("%s disagrees with the reference result", name)
		}
		fmt.Printf("%-16s%10s%12d\n", name, elapsed.Round(time.Millisecond), res.NumFrequent())
	}

	// The analysis itself uses the auto-selected fastest engine — the
	// facade's default. The internal engine reports which engine its mine
	// became (from the frequent items' density and the size of C3).
	auto := &assoc.Auto{}
	if _, err := auto.Mine(raw, minSupport); err != nil {
		return err
	}
	fmt.Printf("\nauto-selected engine: %s\n", auto.Selected())

	// Stream the mine level by level: a dashboard could render the pairs
	// while the long tail is still being counted.
	for level, err := range mining.MineStream(ctx, db, mining.MinSupport(minSupport)) {
		if err != nil {
			return err
		}
		fmt.Printf("  streamed level %d: %d itemsets\n", level.K, len(level.Itemsets))
	}

	// Candidate-pruning anatomy comes from Apriori specifically — it is
	// the one engine whose per-pass Candidates column is a real generated
	// candidate count (pattern growth never materialises candidates).
	anatomy, err := mining.Mine(ctx, db, mining.Algorithm("Apriori"), mining.MinSupport(minSupport))
	if err != nil {
		return err
	}
	fmt.Println("Apriori per-pass anatomy (candidates -> frequent):")
	for _, p := range anatomy.Passes() {
		fmt.Printf("  pass %d: %d -> %d\n", p.K, p.Candidates, p.Frequent)
	}

	// Cross-sell rules ranked by lift. Every engine's result is
	// byte-identical, so the Apriori anatomy result serves double duty.
	rules, err := anatomy.Rules(0.5)
	if err != nil {
		return err
	}
	best := rules
	if len(best) > 8 {
		// Rules sorts by confidence; re-rank the confident ones by lift
		// for the merchandising view.
		for i := 0; i < len(best); i++ {
			for j := i + 1; j < len(best); j++ {
				if best[j].Lift > best[i].Lift {
					best[i], best[j] = best[j], best[i]
				}
			}
		}
		best = best[:8]
	}
	fmt.Println("\ntop cross-sell rules by lift:")
	for _, r := range best {
		fmt.Println("  ", r)
	}
	return nil
}
