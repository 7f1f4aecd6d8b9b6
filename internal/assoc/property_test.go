package assoc

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/oracle"
	"repro/internal/transactions"
)

// oracleRules is the oracle's rule list in this package's Rule type.
func oracleRules(res oracle.Result, minConf float64) []Rule {
	var rules []Rule
	for _, r := range oracle.Rules(res, minConf) {
		rules = append(rules, Rule{Antecedent: r.Antecedent, Consequent: r.Consequent,
			Support: r.Support, Confidence: r.Confidence, Lift: r.Lift})
	}
	return rules
}

// TestMinersMatchBruteForceProperty drives every miner against the oracle
// on random databases whose rows run to 10 of 12 items, so that kernels
// see rows longer than any fixed prefix. Most are small; one in four holds
// over 8,000 rows, so that the pass-k count's tid-bitset blocks (at most
// 4,096 rows each) split it, and is mined at 1–5 % support, where most
// itemsets are frequent and a row miscounted anywhere shows in the result.
func TestMinersMatchBruteForceProperty(t *testing.T) {
	f := func(seed int64, minRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		db := transactions.NewDB()
		nTx := 4 + rng.Intn(20)
		minSup := 0.1 + float64(minRaw%60)/100.0 // 10%..69%
		if rng.Intn(4) == 0 {
			nTx += 8000 + rng.Intn(200)
			minSup = 0.01 + float64(minRaw%5)/100.0 // 1%..5%
		}
		for i := 0; i < nTx; i++ {
			items := make([]int, 1+rng.Intn(10))
			for j := range items {
				items[j] = rng.Intn(12)
			}
			if err := db.Add(items...); err != nil {
				return false
			}
		}
		want := oracle.Frequent(db.Transactions, minSup)
		for _, m := range allMiners() {
			res, err := m.Mine(db, minSup)
			if err != nil {
				t.Logf("%s: %v", m.Name(), err)
				return false
			}
			if !bytes.Equal(res.Canonical(), oracle.Canonical(want)) {
				t.Logf("%s: %d itemsets, oracle %d (seed %d minSup %v)", m.Name(), res.NumFrequent(), len(want.Sets), seed, minSup)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestRuleCompletenessProperty checks ap-genrules against the oracle's
// rules on random databases: the same rules, measures and order.
func TestRuleCompletenessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := transactions.NewDB()
		for i := 0; i < 12; i++ {
			items := make([]int, 1+rng.Intn(4))
			for j := range items {
				items[j] = rng.Intn(6)
			}
			if err := db.Add(items...); err != nil {
				return false
			}
		}
		res, err := (&Apriori{}).Mine(db, 0.25)
		if err != nil {
			return false
		}
		rules, err := GenerateRules(res, 0.6, newRule)
		if want := oracleRules(oracle.Frequent(db.Transactions, 0.25), 0.6); err != nil || !reflect.DeepEqual(rules, want) {
			t.Logf("seed %d: %d rules (err %v), oracle %d", seed, len(rules), err, len(want))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
