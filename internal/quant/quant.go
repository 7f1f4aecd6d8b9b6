// Package quant implements quantitative association-rule mining (Srikant &
// Agrawal, SIGMOD'96): association rules over relational tables with
// numeric and categorical attributes. Numeric attributes are partitioned
// into equi-depth base intervals; items are created for every run of
// consecutive intervals whose support stays below a maximum (so
// near-full-range intervals that would make trivial rules are pruned, the
// paper's maximum-support trick); categorical values map to one item each.
// The encoded transactions are mined level-wise and itemsets that combine
// two items of the same attribute (always either nested or disjoint, hence
// redundant or empty) are filtered out. Cost is the encoding pass plus one
// standard level-wise mine over rows × encoded items.
package quant

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/assoc"
	"repro/internal/dataset"
	"repro/internal/transactions"
)

// Config controls the encoding.
type Config struct {
	// Bins is the number of equi-depth base intervals per numeric
	// attribute (default 4).
	Bins int
	// MaxSupport prunes interval items covering more than this fraction
	// of rows (default 0.5). 1 disables pruning.
	MaxSupport float64
	// SkipColumns marks columns to exclude (e.g. identifiers).
	SkipColumns []int
}

// Item describes one encoded item.
type Item struct {
	Attr int
	// Categorical value index, or -1 for an interval item.
	Value int
	// Lo and Hi bound the numeric interval (inclusive ends of the bin
	// run) for interval items.
	Lo, Hi float64
}

// Codec maps encoded item ids back to attribute conditions.
type Codec struct {
	Items []Item
	Attrs []dataset.Attribute
}

// Describe renders item id as a readable condition.
func (c *Codec) Describe(id int) string {
	if id < 0 || id >= len(c.Items) {
		return fmt.Sprintf("item(%d)", id)
	}
	it := c.Items[id]
	a := c.Attrs[it.Attr]
	if it.Value >= 0 {
		return fmt.Sprintf("%s = %s", a.Name, a.Values[it.Value])
	}
	return fmt.Sprintf("%s in [%.4g, %.4g]", a.Name, it.Lo, it.Hi)
}

// Errors returned by the package.
var (
	ErrNoRows  = errors.New("quant: empty table")
	ErrNoItems = errors.New("quant: no encodable attributes")
)

// Encode converts the table into a transaction database plus the codec.
func Encode(t *dataset.Table, cfg Config) (*transactions.DB, *Codec, error) {
	if t == nil || t.NumRows() == 0 {
		return nil, nil, ErrNoRows
	}
	bins := cfg.Bins
	if bins < 2 {
		bins = 4
	}
	maxSup := cfg.MaxSupport
	if maxSup <= 0 || maxSup > 1 {
		maxSup = 0.5
	}
	skip := make(map[int]bool, len(cfg.SkipColumns))
	for _, j := range cfg.SkipColumns {
		skip[j] = true
	}
	maxRows := int(maxSup * float64(t.NumRows()))

	codec := &Codec{Attrs: t.Attributes}
	// Per column: either value->item for categoricals, or the discretizer
	// plus interval items indexed by (loBin, hiBin).
	type colEnc struct {
		catItems []int // value index -> item id (categorical)
		disc     *dataset.Discretizer
		interval map[[2]int]int // [loBin, hiBin] -> item id
	}
	encs := make(map[int]*colEnc)
	for j, a := range t.Attributes {
		if skip[j] {
			continue
		}
		if a.Kind == dataset.Categorical {
			enc := &colEnc{catItems: make([]int, len(a.Values))}
			for v := range a.Values {
				enc.catItems[v] = len(codec.Items)
				codec.Items = append(codec.Items, Item{Attr: j, Value: v})
			}
			encs[j] = enc
			continue
		}
		disc, err := dataset.FitEqualFrequency(t, j, bins)
		if err != nil {
			continue // column unusable (all missing); skip
		}
		// Count rows per base bin to prune interval runs by support.
		binCount := make([]int, disc.NumBins())
		for _, row := range t.Rows {
			if b := disc.Bin(row[j]); b >= 0 {
				binCount[b]++
			}
		}
		// Interval bounds per bin.
		lo := make([]float64, disc.NumBins())
		hi := make([]float64, disc.NumBins())
		min, max, _ := t.NumericRange(j)
		for b := 0; b < disc.NumBins(); b++ {
			if b == 0 {
				lo[b] = min
			} else {
				lo[b] = disc.Cuts[b-1]
			}
			if b == disc.NumBins()-1 {
				hi[b] = max
			} else {
				hi[b] = disc.Cuts[b]
			}
		}
		enc := &colEnc{disc: disc, interval: make(map[[2]int]int)}
		for lb := 0; lb < disc.NumBins(); lb++ {
			rows := 0
			for hb := lb; hb < disc.NumBins(); hb++ {
				rows += binCount[hb]
				if rows > maxRows && !(lb == hb) {
					break // wider runs only grow
				}
				if rows > maxRows && lb == hb {
					continue // even the base bin is too popular
				}
				enc.interval[[2]int{lb, hb}] = len(codec.Items)
				codec.Items = append(codec.Items, Item{Attr: j, Value: -1, Lo: lo[lb], Hi: hi[hb]})
			}
		}
		encs[j] = enc
	}
	if len(codec.Items) == 0 {
		return nil, nil, ErrNoItems
	}

	db := transactions.NewDB()
	for _, row := range t.Rows {
		var items []int
		for j, enc := range encs {
			v := row[j]
			if dataset.IsMissing(v) {
				continue
			}
			if enc.catItems != nil {
				vi := int(v)
				if vi >= 0 && vi < len(enc.catItems) {
					items = append(items, enc.catItems[vi])
				}
				continue
			}
			b := enc.disc.Bin(v)
			for span, id := range enc.interval {
				if span[0] <= b && b <= span[1] {
					items = append(items, id)
				}
			}
		}
		if err := db.Add(items...); err != nil {
			return nil, nil, err
		}
	}
	return db, codec, nil
}

// Rule is a quantitative association rule with readable conditions.
type Rule struct {
	Antecedent []string
	Consequent []string
	Support    int
	Confidence float64
	Lift       float64
}

// String renders the rule.
func (r Rule) String() string {
	return fmt.Sprintf("%s => %s (sup=%d, conf=%.3f, lift=%.3f)",
		strings.Join(r.Antecedent, " AND "), strings.Join(r.Consequent, " AND "),
		r.Support, r.Confidence, r.Lift)
}

// Mine encodes the table and mines quantitative rules: a level-wise
// search in which candidates combining two items of the same attribute
// are dropped *before* counting (the paper's formulation — nested
// intervals of one attribute always co-occur, so a post-filter would
// first enumerate an exponential candidate space), then rules via
// ap-genrules, decoded through the codec. Rules come back sorted by
// confidence then support.
func Mine(t *dataset.Table, cfg Config, minSupport, minConfidence float64) ([]Rule, *Codec, error) {
	db, codec, err := Encode(t, cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := mineDistinctAttr(db, codec, minSupport)
	if err != nil {
		return nil, nil, err
	}
	rules, err := assoc.GenerateRules(res, minConfidence, func(ante, cons transactions.Itemset, support int, conf, lift float64) Rule {
		return Rule{
			Antecedent: describeAll(codec, ante),
			Consequent: describeAll(codec, cons),
			Support:    support,
			Confidence: conf,
			Lift:       lift,
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return rules, codec, nil
}

func describeAll(codec *Codec, items transactions.Itemset) []string {
	out := make([]string, len(items))
	for i, id := range items {
		out[i] = codec.Describe(id)
	}
	sort.Strings(out)
	return out
}

// mineDistinctAttr is the level-wise miner with the same-attribute
// candidate filter applied before counting.
func mineDistinctAttr(db *transactions.DB, codec *Codec, minSupport float64) (*assoc.Result, error) {
	if minSupport <= 0 || minSupport > 1 {
		return nil, fmt.Errorf("quant: minimum support %v outside (0, 1]", minSupport)
	}
	minCount := db.AbsoluteSupport(minSupport)
	res := &assoc.Result{MinCount: minCount, NumTx: db.Len()}

	// L1 by direct counting.
	counts := make([]int, db.NumItems())
	for _, tx := range db.Transactions {
		for _, item := range tx {
			counts[item]++
		}
	}
	var level []assoc.ItemsetCount
	for item, c := range counts {
		if c >= minCount {
			level = append(level, assoc.ItemsetCount{Items: transactions.Itemset{item}, Count: c})
		}
	}
	res.Passes = append(res.Passes, assoc.PassStat{K: 1, Candidates: db.NumItems(), Frequent: len(level)})
	for k := 2; len(level) > 0; k++ {
		res.Levels = append(res.Levels, level)
		prev := make([]transactions.Itemset, len(level))
		for i, ic := range level {
			prev[i] = ic.Items
		}
		var cands []transactions.Itemset
		for _, c := range assoc.AprioriGen(prev) {
			if distinctAttrs(c, codec) {
				cands = append(cands, c)
			}
		}
		if len(cands) == 0 {
			break
		}
		tally := make([]int, len(cands))
		for _, tx := range db.Transactions {
			for ci, c := range cands {
				if tx.ContainsAll(c) {
					tally[ci]++
				}
			}
		}
		level = nil
		for ci, c := range tally {
			if c >= minCount {
				level = append(level, assoc.ItemsetCount{Items: cands[ci], Count: c})
			}
		}
		res.Passes = append(res.Passes, assoc.PassStat{K: k, Candidates: len(cands), Frequent: len(level)})
	}
	return res, nil
}

func distinctAttrs(items transactions.Itemset, codec *Codec) bool {
	seen := make(map[int]bool, len(items))
	for _, id := range items {
		attr := codec.Items[id].Attr
		if seen[attr] {
			return false
		}
		seen[attr] = true
	}
	return true
}
