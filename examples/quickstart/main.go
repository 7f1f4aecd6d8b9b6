// Quickstart: the three technique families on synthetic data in ~40 lines
// each — association rules through the public mining API (one-shot mine,
// then a stateful session absorbing updates), k-means on points, and a
// decision tree with cross-validation on a labelled table.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/synth"
	"repro/internal/transactions"
	"repro/mining"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// toMiningDB adapts a synthetic generator database to the public API.
func toMiningDB(db *transactions.DB) (*mining.DB, error) {
	rows := make([][]int, db.Len())
	for i, tx := range db.Transactions {
		rows[i] = tx
	}
	return mining.NewDB(rows)
}

func run() error {
	ctx := context.Background()

	// --- Association rules (public mining API) ------------------------
	raw, err := synth.Baskets(synth.TxI(8, 3, 2000, 1))
	if err != nil {
		return err
	}
	db, err := toMiningDB(raw)
	if err != nil {
		return err
	}
	res, err := mining.Mine(ctx, db,
		mining.MinSupport(0.005),
		mining.Workers(0), // 0 = GOMAXPROCS; results are identical at any worker count
	)
	if err != nil {
		return err
	}
	rules, err := res.Rules(0.3)
	if err != nil {
		return err
	}
	fmt.Printf("association: %d frequent itemsets, %d rules; strongest:\n", res.NumFrequent(), len(rules))
	for i, r := range rules {
		if i == 3 {
			break
		}
		fmt.Println("  ", r)
	}

	// The stateful handle: a session keeps the result current as data
	// arrives, counting only the transactions each update adds or deletes.
	s, err := mining.NewSession(db, mining.MinSupport(0.005))
	if err != nil {
		return err
	}
	defer s.Close()
	if _, err := s.Mine(ctx); err != nil {
		return err
	}
	for i := 0; i < 50; i++ {
		if err := s.Append(i%5, i%7, i%11); err != nil {
			return err
		}
	}
	upd, stats, err := s.Maintain(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("session: +50 transactions -> %d frequent; counted %d transactions (%d/%d shards touched)\n",
		upd.NumFrequent(), stats.RecountedTx, stats.DirtyShards, stats.NumShards)

	// --- Clustering ---------------------------------------------------
	pts, err := synth.GaussianMixture(synth.GaussianConfig{
		NumPoints: 600, NumCluster: 4, Dims: 2, Spread: 1, Separation: 60, Seed: 2,
	})
	if err != nil {
		return err
	}
	km := &cluster.KMeans{K: 4, Seed: 3}
	cres, err := km.Run(pts.X)
	if err != nil {
		return err
	}
	ri, err := cluster.RandIndex(cres.Assignments, pts.Labels)
	if err != nil {
		return err
	}
	fmt.Printf("\nclustering: k-means found %d clusters, SSE %.1f, Rand index vs truth %.3f\n",
		cres.NumClusters(), cres.Cost, ri)

	// --- Classification -----------------------------------------------
	tbl, err := synth.Classify(synth.ClassifyConfig{NumRows: 1000, Function: 3, Seed: 4})
	if err != nil {
		return err
	}
	comps, err := core.CompareClassifiers(tbl, core.Classifiers(), 5, 5)
	if err != nil {
		return err
	}
	fmt.Println("\nclassification (5-fold CV accuracy):")
	for _, c := range comps {
		fmt.Printf("  %-14s %.1f%%\n", c.Name, c.Accuracy*100)
	}
	return nil
}
