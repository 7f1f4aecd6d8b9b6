package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/synth"
)

// poolSeed fixes the Quest pattern table every fixture is drawn from. The
// frequent-set size of T10.I4 swings by ±7 % between generator seeds
// (2427–2806 itemsets at 0.2 % support over six seeds), which moves op
// time by more than any bound here; the run's --seed therefore decides the
// *order* of one fixed pool — which transactions form the database, which
// arrive later and when, and which query is asked when — but not the
// pattern table.
const poolSeed = 1996

// scale sizes one run: the fixture, the supports, and each workload's
// fixed work. full is what BENCHMARK.json measures; smoke is the same
// code on a fixture small enough for the tier-1 tests.
type scale struct {
	pool      int        // transactions generated from poolSeed
	rows      int        // transactions of the seeded order that form the database
	ladder    [3]float64 // mine_local's supports, named s004, s002, s001
	distSup   float64    // mine_dist's support
	serveSup  float64    // the serving tier's support
	ruleFloor float64    // the serving tier's confidence floor
	queries   int        // distinct read queries (8x serve.DefaultCacheSize)
	setupReps int        // set-ups per untraced run; setup_s is their median
	sizing    map[string]sizing
}

// sizing is one workload's fixed work. A run executes
// round(opsPerSecond × seconds / windowOps) windows (at least minWindows)
// of windowOps ops each, so the op sequence and every count depend only on
// the seed and the seconds, never on how fast the host happens to be.
// opsPerSecond was calibrated once on the seed commit (README,
// "Calibration") and is frozen; fixedWindows overrides the product for
// the smoke scale.
type sizing struct {
	opsPerSecond float64
	windowOps    int
	fixedWindows int
	warmOps      int // untimed ops that end the set-up
	sample       int // traced run: every sample-th op carries spans
}

// minWindows keeps the quartiles across windows inside the sample range.
const minWindows = 4

// windows is the window count for a run of the given length.
func (z sizing) windows(seconds int) int {
	if z.fixedWindows > 0 {
		return z.fixedWindows
	}
	n := int(z.opsPerSecond*float64(seconds)/float64(z.windowOps) + 0.5)
	if n < minWindows {
		n = minWindows
	}
	return n
}

// scales are the two run sizes.
var scales = map[string]scale{
	"full": {
		pool: 100000, rows: 80000,
		ladder: [3]float64{0.004, 0.002, 0.001}, distSup: 0.005,
		serveSup: 0.002, ruleFloor: 0.3, queries: 4096, setupReps: 3,
		sizing: map[string]sizing{
			"mine_local":  {opsPerSecond: 1.2, windowOps: 1, warmOps: 1, sample: 1},
			"mine_dist":   {opsPerSecond: 11, windowOps: 12, warmOps: 3, sample: 1},
			"serve_read":  {opsPerSecond: 125000, windowOps: 125000, warmOps: 50000, sample: 97},
			"serve_write": {opsPerSecond: 480, windowOps: 512, warmOps: 64, sample: 7},
		},
	},
	"smoke": {
		pool: 4800, rows: 4000,
		ladder: [3]float64{0.02, 0.012, 0.0075}, distSup: 0.02,
		serveSup: 0.0075, ruleFloor: 0.3, queries: 4096, setupReps: 1,
		sizing: map[string]sizing{
			"mine_local":  {windowOps: 1, fixedWindows: 4, warmOps: 1, sample: 1},
			"mine_dist":   {windowOps: 2, fixedWindows: 4, warmOps: 1, sample: 1},
			"serve_read":  {windowOps: 1500, fixedWindows: 4, warmOps: 500, sample: 7},
			"serve_write": {windowOps: 24, fixedWindows: 4, warmOps: 8, sample: 3},
		},
	},
}

// ladderNames label the three rungs in metric names.
var ladderNames = [3]string{"s004", "s002", "s001"}

// questRows generates n Quest T10.I4 transactions as plain rows.
func questRows(n int, seed int64) ([][]int, error) {
	db, err := synth.Baskets(synth.T10I4(n, seed))
	if err != nil {
		return nil, err
	}
	rows := make([][]int, len(db.Transactions))
	for i, tx := range db.Transactions {
		rows[i] = tx
	}
	return rows, nil
}

// fixture is one run's data: the fixed pool in this seed's order. The
// first sc.rows transactions of the order are the initial database; the
// write workload appends the rest, and then the ones it deleted longest
// ago, so its store is always a window of sc.rows consecutive
// transactions sliding round the order — new arrivals come from the same
// distribution as the data they replace, and the store never degenerates
// into copies of a small ingest pool.
type fixture struct {
	pool [][]int // generation order: what the query pool is cut from
	seq  [][]int // this seed's order, a whole number of ingest cycles long
	rows [][]int // seq[:sc.rows]
}

// loadFixture generates the pool and orders it by the seed.
func loadFixture(sc scale, seed int64) (*fixture, error) {
	pool, err := questRows(sc.pool, poolSeed)
	if err != nil {
		return nil, err
	}
	n := len(pool) / cycleLines * cycleLines
	seq := make([][]int, n)
	for i, j := range rand.New(rand.NewSource(seed)).Perm(len(pool))[:n] {
		seq[i] = pool[j]
	}
	return &fixture{pool: pool, seq: seq, rows: seq[:sc.rows]}, nil
}

// basketLine renders one transaction as a basket line.
func basketLine(b *strings.Builder, row []int) {
	for i, it := range row {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.Itoa(it))
	}
	b.WriteByte('\n')
}

// cycleLines is how many baskets one ingest cycle appends and deletes.
const cycleLines = 16

// ingestBodies renders seq as POST bodies of cycleLines basket lines each.
func ingestBodies(seq [][]int) []string {
	bodies := make([]string, 0, len(seq)/cycleLines)
	for i := 0; i < len(seq); i += cycleLines {
		var b strings.Builder
		for _, row := range seq[i : i+cycleLines] {
			basketLine(&b, row)
		}
		bodies = append(bodies, b.String())
	}
	return bodies
}

// queryKind is the endpoint a read query goes to.
type queryKind int

const (
	kindRules queryKind = iota
	kindRecommend
	kindSupport
)

// query is one read request of the pool.
type query struct {
	kind queryKind
	url  string // path and raw query
}

// queryPool builds the n distinct read queries, the same for every seed:
// by rank modulo five, two in five ask /v1/rules (k, ranking and an
// optional one-item antecedent varied), two in five /v1/recommend (a
// basket cut from a pool row) and one in five /v1/support (one to three
// items of a row). Rank order is popularity order — the Zipf draw in
// readSequence makes low ranks hot, the hottest one a sixth of all
// traffic — so reseeding the pool would let whichever query landed on
// rank 0 decide the run's mean response size; the seed decides the
// arrival order instead.
func queryPool(rows [][]int, n int) []query {
	rng := rand.New(rand.NewSource(poolSeed))
	seen := make(map[string]bool, n)
	pool := make([]query, 0, n)
	ks := []int{5, 10, 20, 50}
	bys := []string{"confidence", "support", "lift"}
	itemList := func(items []int) string {
		parts := make([]string, len(items))
		for i, it := range items {
			parts[i] = strconv.Itoa(it)
		}
		return strings.Join(parts, ",")
	}
	cut := func(maxLen int) []int {
		row := rows[rng.Intn(len(rows))]
		k := 1 + rng.Intn(maxLen)
		if k > len(row) {
			k = len(row)
		}
		start := rng.Intn(len(row) - k + 1)
		return row[start : start+k]
	}
	for len(pool) < n {
		var q query
		switch len(pool) % 5 {
		case 0, 1:
			q.kind = kindRules
			q.url = fmt.Sprintf("/v1/rules?k=%d&by=%s", ks[rng.Intn(len(ks))], bys[rng.Intn(len(bys))])
			if rng.Intn(4) > 0 {
				q.url += "&antecedent=" + itemList(cut(1))
			}
		case 2, 3:
			q.kind = kindRecommend
			q.url = fmt.Sprintf("/v1/recommend?k=%d&items=%s", ks[rng.Intn(len(ks))], itemList(cut(8)))
		default:
			q.kind = kindSupport
			q.url = "/v1/support?items=" + itemList(cut(3))
		}
		if !seen[q.url] {
			seen[q.url] = true
			pool = append(pool, q)
		}
	}
	return pool
}

// readSequence draws n query ranks Zipf(1.1)-distributed over a pool of
// poolSize, the op sequence of serve_read.
func readSequence(n, poolSize int, rng *rand.Rand) []uint16 {
	z := rand.NewZipf(rng, 1.1, 1, uint64(poolSize-1))
	seq := make([]uint16, n)
	for i := range seq {
		seq[i] = uint16(z.Uint64())
	}
	return seq
}
