package reference

import (
	"context"
	"fmt"

	"repro/internal/assoc"
	"repro/internal/transactions"
)

// Partition is the two-scan algorithm of Savasere, Omiecinski & Navathe
// (VLDB'95): the database is split into memory-sized partitions; each
// partition is mined completely with a local minimum support in the
// vertical layout; the union of local frequent itemsets is the global
// candidate set (any globally frequent itemset must be locally frequent
// in at least one partition); a second scan counts the global support of
// every candidate. The local phase is assoc.Eclat, whose bitset tid-sets
// replaced the paper's tid-lists, and the second scan is countLevels.
type Partition struct {
	// NumPartitions is the number of chunks; zero or one degenerates to a
	// single partition (still a correct, two-scan run).
	NumPartitions int
}

// Name implements assoc.Miner.
func (p *Partition) Name() string {
	if p.NumPartitions > 1 {
		return fmt.Sprintf("Partition(%d)", p.NumPartitions)
	}
	return "Partition"
}

// Mine implements assoc.Miner.
func (p *Partition) Mine(db *transactions.DB, minSupport float64) (*assoc.Result, error) {
	return p.MineContext(context.Background(), db, minSupport)
}

// MineContext implements assoc.Miner.
func (p *Partition) MineContext(ctx context.Context, db *transactions.DB, minSupport float64) (*assoc.Result, error) {
	minCount, err := checkInput(db, minSupport)
	if err != nil {
		return &assoc.Result{}, err
	}

	// Phase 1: local frequent itemsets per partition. Eclat's local
	// minimum support is ceil(rel * partition size), the paper's
	// guarantee that a globally frequent itemset is locally frequent
	// somewhere. db.Shards never returns an empty shard.
	var byLen [][]transactions.Itemset
	for _, sh := range db.Shards(p.NumPartitions) {
		part := transactions.NewDB()
		for _, t := range sh.Transactions {
			if err := part.Add(t...); err != nil {
				return &assoc.Result{}, err
			}
		}
		local, err := (&assoc.Eclat{}).MineContext(ctx, part, minSupport)
		if err != nil {
			return nil, err
		}
		for l, level := range local.Levels {
			if l == len(byLen) {
				byLen = append(byLen, nil)
			}
			for _, ic := range level {
				byLen[l] = append(byLen[l], ic.Items)
			}
		}
	}
	for l := range byLen {
		byLen[l] = sortUnique(byLen[l])
	}

	// Phase 2: count every candidate against the full database. Long
	// local candidates can all be globally infrequent, so the trailing
	// empty levels are trimmed.
	levels, passes, err := countLevels(ctx, db, byLen, minCount)
	if err != nil {
		return nil, err
	}
	for len(levels) > 0 && len(levels[len(levels)-1]) == 0 {
		levels = levels[:len(levels)-1]
	}
	return &assoc.Result{MinCount: minCount, NumTx: db.Len(), Levels: levels, Passes: passes}, nil
}
