// Package repro is a from-scratch Go reproduction of the techniques
// surveyed by "Data Mining Techniques" (SIGMOD 1996): association-rule
// mining (AIS, SETM, Apriori family, Partition, DHP), sequential patterns
// (AprioriAll, GSP), clustering (k-means, PAM/CLARA/CLARANS, hierarchical,
// DBSCAN, BIRCH), classification (decision trees, naive Bayes, kNN, 1R,
// neural networks), the synthetic workload generators their canonical
// evaluations used, and an experiment harness that regenerates those
// evaluations' tables and figures.
//
// The public entry point for frequent-itemset mining is the mining
// package at the module root: a context-aware Mine with functional
// options (MinSupport, Workers, Algorithm, Transport, Progress), a
// MineStream variant yielding per-level results via iter.Seq2, and a
// stateful Session that owns an updatable sharded store and keeps its
// result current under appends and deletes. Everything below this
// paragraph describes the internal engines that facade drives; their
// results are byte-identical through either path, a contract the test
// suite and an exported-API golden gate pin in CI.
//
// The level-wise loop and the pattern-growth sequence are each written
// once (internal/assoc) against a four-method scan source — pass-1 item
// counts, the pass-2 pair triangle, the pass-k hash-tree count, the
// FP-tree build — and the engines differ only in where those scans run.
// The local source is count distribution: the transaction database is
// split into contiguous zero-copy shards (transactions.DB.Shards), each
// worker scans its shard into private counters (flat item counts, the
// pass-2 triangular pair array, or a hashtree.CountBuffer over the
// read-only candidate tree), and the private counters are merged after
// the pass. Merged results are bit-identical to the serial scan, so
// Apriori and DHP take a Workers option that changes only wall-clock
// time. Eclat instead mines the vertical layout as
// transactions.Bitset tid-sets (word-wise AND + popcount). FPGrowth is
// the candidate-free engine: per-shard FP-trees (internal/fptree) are mined
// together as a forest — the same commutative additions, made inside the
// projections instead of by a merge into a global tree — and mining
// fans per-item conditional projections out across workers — the
// low-support winner (bench metrics assoc.apriori_ms.* vs
// assoc.fpgrowth_ms.*). assoc.Auto runs passes 1 and 2 once, measures C3
// = apriori-gen(L2) without a scan, and goes on level-wise or hands the
// pass-1 counts to pattern growth — no engine runs twice.
//
// The incremental backend (assoc.Incremental over transactions.ShardedDB)
// exploits the same seams under updates: the store journals every append
// and delete, the maintainer keeps one exact running total per tracked
// count, and because integer merges are invertible an update is absorbed
// by counting only the journalled transactions — added ones in, deleted
// ones out — so the work follows the update, not the store. It falls back
// to a full re-mine only when the maintained frequent set's negative
// border is crossed or the journal cannot account for the store. A full
// re-mine is one level-wise run at the tracking support whose pass counts
// become the totals, so the store is counted once. Results stay
// byte-identical to a from-scratch run at every step.
//
// The distributed backend (internal/dist + assoc.Distributed) is the
// remote scan source under the same two drivers: a coordinator ships
// version-stamped shard snapshots to workers over a pluggable transport
// (in-process channels for single-binary use, net/rpc carrying the same
// varint wire codec in length-prefixed frames for real deployment),
// workers scan their replicas with the same per-transaction
// kernels — including serialized FP-tree builds — and the coordinator
// merges the returned buffers with the same commutative adds, so
// distributed results are byte-identical to local runs, and a mine that
// loses its whole cluster finishes on the local source (the bench metrics
// dist.overhead_x and dist.gob_share — the codec's share, under the name
// of the codec it replaced — track the shipping and serialization
// overhead). The maintainer's full runs (assoc.Incremental.Remote) sync a
// ShardedDB's version-stamped shards, so only dirty ones re-ship after
// updates.
//
// See README.md for the tour. cmd/dmbench prints the paper-shaped
// experiment tables; bench/ (bench/README.md) is the one performance
// harness.
package repro
