package serve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"testing"

	"repro/mining"
)

// scanTopRules, rankRules and scanRecommend are the query implementations
// the index replaced, moved here unchanged: a filter over every published
// rule and a stable sort of the survivors. They are the reference the
// differential tests compare the index walks against.
func scanTopRules(v *View, q RulesQuery) []mining.Rule {
	matched := make([]mining.Rule, 0, q.K)
	for _, r := range v.rules {
		if r.Confidence < q.MinConfidence {
			continue
		}
		if len(q.Antecedent) > 0 && !containsAll(r.Antecedent, q.Antecedent) {
			continue
		}
		matched = append(matched, r)
	}
	rankRules(matched, q.By)
	if len(matched) > q.K {
		matched = matched[:q.K]
	}
	return matched
}

// rankRules stably sorts rules by the chosen metric descending; the
// incoming GenerateRules order breaks ties.
func rankRules(rules []mining.Rule, by RankBy) {
	switch by {
	case BySupport:
		sort.SliceStable(rules, func(i, j int) bool { return rules[i].Support > rules[j].Support })
	case ByLift:
		sort.SliceStable(rules, func(i, j int) bool { return rules[i].Lift > rules[j].Lift })
	default:
		// ByConfidence is the GenerateRules order already.
	}
}

// scanRecommend is the reference recommendation scan.
func scanRecommend(v *View, basket []int, k int) []mining.Rule {
	var matched []mining.Rule
	for _, r := range v.rules {
		if !containsAll(basket, r.Antecedent) {
			continue
		}
		if containsAll(basket, r.Consequent) {
			continue // nothing new to recommend
		}
		matched = append(matched, r)
	}
	sort.SliceStable(matched, func(i, j int) bool {
		if matched[i].Confidence != matched[j].Confidence {
			return matched[i].Confidence > matched[j].Confidence
		}
		return matched[i].Lift > matched[j].Lift
	})
	if len(matched) > k {
		matched = matched[:k]
	}
	return matched
}

// viewOf mines rows from scratch and wraps the floor rule set in a view,
// the way a publish would.
func viewOf(t testing.TB, rows [][]int) *View {
	t.Helper()
	res, err := mining.Mine(context.Background(), mustDB(t, rows), mining.MinSupport(testMinSup))
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	rules, err := res.Rules(testFloor)
	if err != nil {
		t.Fatalf("rules: %v", err)
	}
	return newView(1, 0, mining.MaintainStats{}, res, rules)
}

// syntheticRules draws n rules over the given item universe in
// GenerateRules order, with metrics quantized so that ties — the case the
// id tiebreak exists for — are common.
func syntheticRules(n, items int, seed int64) []mining.Rule {
	rng := rand.New(rand.NewSource(seed))
	itemset := func(size int, avoid []int) []int {
		seen := map[int]bool{}
		for _, it := range avoid {
			seen[it] = true
		}
		var out []int
		for len(out) < size {
			if it := rng.Intn(items); !seen[it] {
				seen[it] = true
				out = append(out, it)
			}
		}
		sort.Ints(out)
		return out
	}
	rules := make([]mining.Rule, n)
	for i := range rules {
		ant := itemset(1+rng.Intn(3), nil)
		rules[i] = mining.Rule{
			Antecedent: ant,
			Consequent: itemset(1+rng.Intn(2), ant),
			Support:    20 + rng.Intn(40),
			Confidence: 0.3 + float64(rng.Intn(70))/100,
			Lift:       float64(rng.Intn(50)) / 4,
		}
	}
	sort.SliceStable(rules, func(i, j int) bool {
		a, b := rules[i], rules[j]
		if a.Confidence != b.Confidence {
			return a.Confidence > b.Confidence
		}
		return a.Support > b.Support
	})
	return rules
}

// sameRules compares two answers, treating nil and empty alike.
func sameRules(a, b []mining.Rule) bool {
	return (len(a) == 0 && len(b) == 0) || reflect.DeepEqual(a, b)
}

// checkAgainstScan asks the index and the reference scan the same
// normalized rule query and recommendation.
func checkAgainstScan(t *testing.T, v *View, q RulesQuery, basket []int, k int) {
	t.Helper()
	if got, want := v.topRules(q), scanTopRules(v, q); !sameRules(got, want) {
		t.Fatalf("topRules(%+v) over %d rules:\n got %v\nwant %v", q, len(v.rules), got, want)
	}
	if len(basket) == 0 {
		return
	}
	if got, want := v.recommend(basket, k), scanRecommend(v, basket, k); !sameRules(got, want) {
		t.Fatalf("recommend(%v, %d) over %d rules:\n got %v\nwant %v", basket, k, len(v.rules), got, want)
	}
}

// TestIndexMatchesScan is the differential test of the query index: over
// mined and synthetic rule sets, random queries of every shape must get
// from the index walks exactly what the replaced full scan answers.
func TestIndexMatchesScan(t *testing.T) {
	const items = 16
	views := map[string]*View{
		"empty":     newView(0, 0, mining.MaintainStats{}, nil, nil),
		"synthetic": newView(1, 0, mining.MaintainStats{}, nil, syntheticRules(1500, 40, 99)),
	}
	for seed := int64(1); seed <= 6; seed++ {
		v := viewOf(t, fixtureRows(300, items, seed))
		if len(v.rules) < 50 {
			t.Fatalf("seed %d mined %d rules, want >= 50 (the comparison would be near-vacuous)", seed, len(v.rules))
		}
		views[fmt.Sprintf("mined-%d", seed)] = v
	}
	for name, v := range views {
		t.Run(name, func(t *testing.T) {
			universe := items
			if name == "synthetic" {
				universe = 40
			}
			rng := rand.New(rand.NewSource(int64(len(v.rules))))
			for i := 0; i < 3000; i++ {
				q := RulesQuery{
					K:  1 + rng.Intn(2*len(v.rules)+3),
					By: []RankBy{ByConfidence, BySupport, ByLift}[rng.Intn(3)],
				}
				if rng.Intn(2) == 0 {
					q.MinConfidence = rng.Float64()
				}
				for n := rng.Intn(4); n > 0; n-- {
					// One past the universe: an item no rule mentions.
					q.Antecedent = append(q.Antecedent, rng.Intn(universe+1))
				}
				nq, err := q.normalize()
				if err != nil {
					t.Fatalf("normalize(%+v): %v", q, err)
				}
				basket := make([]int, 1+rng.Intn(6))
				for j := range basket {
					basket[j] = rng.Intn(universe + 1)
				}
				basket, err = normalizeItems(basket)
				if err != nil {
					t.Fatalf("normalizeItems: %v", err)
				}
				checkAgainstScan(t, v, nq, basket, 1+rng.Intn(30))
			}
		})
	}
}

// FuzzQueryIndex feeds parsed HTTP queries to both implementations over
// one mined view: whatever the parsers accept, the index and the scan
// must answer alike.
func FuzzQueryIndex(f *testing.F) {
	f.Add("k=5&by=lift", "2,3", 5)
	f.Add("antecedent=2&by=support&k=50", "0,1,2,3,4,5", 0)
	f.Add("minconf=0.6&antecedent=4,5", "9", 1)
	f.Add("k=10000&minconf=1", "1,9223372036854775807", 10000)
	f.Add("antecedent=9223372036854775807", "", 3)
	v := viewOf(f, fixtureRows(300, 16, 3))
	f.Fuzz(func(t *testing.T, rawQuery, rawBasket string, k int) {
		values, err := url.ParseQuery(rawQuery)
		if err != nil {
			t.Skip()
		}
		q, err := ParseRulesQuery(values)
		if err != nil {
			t.Skip()
		}
		basket, err := ParseItems(rawBasket)
		if err != nil {
			t.Skip()
		}
		if basket, err = normalizeItems(basket); err != nil {
			t.Skip()
		}
		checkAgainstScan(t, v, q, basket, min(max(k, 1), MaxTopK))
	})
}

// TestIndexOrderInvariants pins what the index walks lean on: published
// rules are confidence non-increasing with non-empty antecedents (so an
// id cutoff is a confidence filter and first-item postings cover every
// rule), the permutations are the comparators' sorted orders, and the
// comparators are total orders even over NaN and infinite lifts.
func TestIndexOrderInvariants(t *testing.T) {
	srv := newTestServer(t, fixtureRows(300, 16, 21), Config{})
	v := srv.View()
	rules := v.Rules()
	if len(rules) < 50 {
		t.Fatalf("only %d rules published", len(rules))
	}
	for i, r := range rules {
		if len(r.Antecedent) == 0 {
			t.Fatalf("rule %d has an empty antecedent", i)
		}
		if !sort.IntsAreSorted(r.Antecedent) {
			t.Fatalf("rule %d antecedent %v is not sorted", i, r.Antecedent)
		}
		if i > 0 && rules[i-1].Confidence < r.Confidence {
			t.Fatalf("confidence rises at rule %d: %v after %v", i, r.Confidence, rules[i-1].Confidence)
		}
	}
	for _, by := range []RankBy{BySupport, ByLift} {
		order := v.index.bySupport
		if by == ByLift {
			order = v.index.byLift
		}
		if len(order) != len(rules) {
			t.Fatalf("%s permutation has %d ids for %d rules", by, len(order), len(rules))
		}
		cmpIDs := rankCmp(rules, by)
		for i := 1; i < len(order); i++ {
			if cmpIDs(order[i-1], order[i]) >= 0 {
				t.Fatalf("%s permutation out of order at %d", by, i)
			}
		}
	}

	odd := []mining.Rule{
		{Lift: math.NaN()}, {Lift: math.Inf(1)}, {Lift: 1.5}, {Lift: math.NaN()},
		{Lift: 1.5}, {Lift: math.Inf(-1)}, {Lift: 0}, {Lift: math.Copysign(0, -1)},
	}
	for _, by := range []RankBy{ByConfidence, BySupport, ByLift} {
		cmpIDs := rankCmp(odd, by)
		n := int32(len(odd))
		for a := int32(0); a < n; a++ {
			for b := int32(0); b < n; b++ {
				if ab, ba := cmpIDs(a, b), cmpIDs(b, a); ab != -ba || (ab == 0) != (a == b) {
					t.Fatalf("%s: cmp(%d,%d)=%d but cmp(%d,%d)=%d", by, a, b, ab, b, a, ba)
				}
				for c := int32(0); c < n; c++ {
					if cmpIDs(a, b) < 0 && cmpIDs(b, c) < 0 && cmpIDs(a, c) >= 0 {
						t.Fatalf("%s: not transitive over ids %d, %d, %d", by, a, b, c)
					}
				}
			}
		}
	}
}

// TestIndexMissAllocationBounded pins that a miss allocates for its answer,
// not for the K it was asked: k=MaxTopK over a small view used to reserve
// MaxTopK rule slots (720 KB) to return a handful.
func TestIndexMissAllocationBounded(t *testing.T) {
	srv := newTestServer(t, fixtureRows(200, 30, 1), Config{CacheSize: -1})
	if n := len(srv.View().Rules()); n == 0 || n > 100 {
		t.Fatalf("fixture published %d rules, want a small non-empty view", n)
	}
	for _, q := range []RulesQuery{
		{K: MaxTopK},
		{K: MaxTopK, By: BySupport},
		{K: MaxTopK, By: ByLift, Antecedent: []int{srv.View().Rules()[0].Antecedent[0]}},
	} {
		rules, _, err := srv.TopRules(q)
		if err != nil || len(rules) == 0 {
			t.Fatalf("TopRules(%+v) = %d rules, %v", q, len(rules), err)
		}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, func() { srv.TopRules(q) })
		runtime.ReadMemStats(&after)
		// AllocsPerRun calls the function once more to warm up.
		perMiss := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
		if perMiss >= 8<<10 {
			t.Errorf("TopRules(%+v): %d B per miss for a %d-rule answer, want < 8 KB", q, perMiss, len(rules))
		}
		if allocs > 8 {
			t.Errorf("TopRules(%+v): %v allocations per miss", q, allocs)
		}
	}
}

// TestRecommendOnOneSnapshot pins the single-snapshot half of the query
// API: asked of a view the server has since replaced, the answer and its
// cache entry belong to the view that was passed, not the current one.
func TestRecommendOnOneSnapshot(t *testing.T) {
	srv := newTestServer(t, fixtureRows(150, 16, 15), Config{})
	old := srv.View()
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		if err := srv.Enqueue(ctx, Op{Kind: OpAppend, Items: []int{2, 13}}); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	if _, err := srv.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got, err := srv.recommendOn(old, []int{2}, 5)
	if err != nil {
		t.Fatalf("recommendOn: %v", err)
	}
	if want := scanRecommend(old, []int{2}, 5); !sameRules(got, want) {
		t.Fatalf("recommendOn(old view) answered from another view:\n got %v\nwant %v", got, want)
	}
	top, err := srv.topRulesOn(old, RulesQuery{K: 4, By: BySupport})
	if err != nil {
		t.Fatalf("topRulesOn: %v", err)
	}
	if want := scanTopRules(old, RulesQuery{K: 4, By: BySupport}); !sameRules(top, want) {
		t.Fatalf("topRulesOn(old view) answered from another view:\n got %v\nwant %v", top, want)
	}
}

// BenchmarkIndexBuild is the write-side budget of the index: one build
// per publish, at the bench fixture's rule count (2,129), must stay under
// 0.5 ms and 60 KB.
func BenchmarkIndexBuild(b *testing.B) {
	rules := syntheticRules(2129, 870, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := newQueryIndex(rules)
		if len(ix.bySupport) != len(rules) {
			b.Fatal("short index")
		}
	}
}

// BenchmarkQueryMiss times the three miss shapes of serve_read on a rule
// set of the bench fixture's size.
func BenchmarkQueryMiss(b *testing.B) {
	rules := syntheticRules(2129, 870, 7)
	v := newView(1, 0, mining.MaintainStats{}, nil, rules)
	item := rules[len(rules)/2].Antecedent[0]
	basket, _ := normalizeItems(append([]int{item, 3, 99, 400}, rules[7].Antecedent...))
	for _, by := range []RankBy{ByConfidence, BySupport, ByLift} {
		b.Run("top-"+string(by), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v.topRules(RulesQuery{K: 10, By: by})
			}
		})
		b.Run("antecedent-"+string(by), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v.topRules(RulesQuery{K: 10, By: by, Antecedent: []int{item}})
			}
		})
	}
	b.Run("recommend-"+strconv.Itoa(len(basket)), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v.recommend(basket, 10)
		}
	})
}
