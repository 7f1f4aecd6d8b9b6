package serve

import (
	"cmp"
	"fmt"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/mining"
)

// Query limits applied during normalization.
const (
	// DefaultTopK is the rule count returned when K is 0.
	DefaultTopK = 10
	// MaxTopK caps K so one query cannot ask the server to copy the whole
	// rule set per request.
	MaxTopK = 10000
	// maxQueryItems caps the item-list length of a single query.
	maxQueryItems = 1024
)

// RankBy selects the rule ordering of a RulesQuery.
type RankBy string

// The three rule orderings. Ties always break toward the published
// GenerateRules order so every ordering is deterministic.
const (
	// ByConfidence ranks by confidence descending (the default).
	ByConfidence RankBy = "confidence"
	// BySupport ranks by absolute support descending.
	BySupport RankBy = "support"
	// ByLift ranks by lift descending.
	ByLift RankBy = "lift"
)

// RulesQuery selects and orders association rules from the current view:
// the top K rules by the chosen metric, at or above MinConfidence,
// optionally restricted to rules whose antecedent contains every item in
// Antecedent. The zero value is "top 10 by confidence at the floor".
type RulesQuery struct {
	// K is the maximum number of rules returned (0 = DefaultTopK,
	// clamped to MaxTopK).
	K int
	// By is the ranking metric ("" = ByConfidence).
	By RankBy
	// MinConfidence filters rules below it; values at or below the
	// server's rule floor are answered from the floor set.
	MinConfidence float64
	// Antecedent, when non-empty, keeps only rules whose antecedent
	// contains every listed item.
	Antecedent []int
}

// normalize validates q and returns its canonical form: K bounded, By
// resolved, the antecedent sorted and deduplicated. Two queries that
// normalize identically share one cache entry.
func (q RulesQuery) normalize() (RulesQuery, error) {
	if q.K < 0 {
		return q, fmt.Errorf("%w: negative top-k %d", ErrBadQuery, q.K)
	}
	if q.K == 0 {
		q.K = DefaultTopK
	}
	if q.K > MaxTopK {
		q.K = MaxTopK
	}
	switch q.By {
	case "":
		q.By = ByConfidence
	case ByConfidence, BySupport, ByLift:
	default:
		return q, fmt.Errorf("%w: unknown rank key %q (want confidence, support or lift)", ErrBadQuery, q.By)
	}
	// The inverted comparison also rejects NaN, which every ordered
	// comparison lets through.
	if !(q.MinConfidence >= 0 && q.MinConfidence <= 1) {
		return q, fmt.Errorf("%w: min confidence %v outside [0, 1]", ErrBadQuery, q.MinConfidence)
	}
	ant, err := normalizeItems(q.Antecedent)
	if err != nil {
		return q, err
	}
	q.Antecedent = ant
	return q, nil
}

// key renders the normalized query as the query half of its cache key,
// appending into a stack buffer so the string is the one allocation.
func (q RulesQuery) key() string {
	var buf [96]byte
	b := append(buf[:0], "rules|k="...)
	b = strconv.AppendInt(b, int64(q.K), 10)
	b = append(b, "|by="...)
	b = append(b, q.By...)
	b = append(b, "|conf="...)
	b = strconv.AppendFloat(b, q.MinConfidence, 'g', -1, 64)
	b = append(b, "|ant="...)
	return string(appendItems(b, q.Antecedent))
}

// appendItems appends items to b, comma-separated.
func appendItems(b []byte, items []int) []byte {
	for i, it := range items {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(it), 10)
	}
	return b
}

// normalizeItems sorts, deduplicates and bounds-checks a query item list.
func normalizeItems(items []int) ([]int, error) {
	if len(items) > maxQueryItems {
		return nil, fmt.Errorf("%w: %d items exceeds the %d-item limit", ErrBadQuery, len(items), maxQueryItems)
	}
	out := make([]int, 0, len(items))
	for _, it := range items {
		if it < 0 {
			return nil, fmt.Errorf("%w: negative item id %d", ErrBadQuery, it)
		}
		out = append(out, it)
	}
	sort.Ints(out)
	j := 0
	for i, it := range out {
		if i == 0 || it != out[j-1] {
			out[j] = it
			j++
		}
	}
	return out[:j], nil
}

// rulesParams are the parameters of a rule query, in the order
// parseRulesParams takes their values.
var rulesParams = [...]string{"k", "by", "minconf", "antecedent"}

// ParseRulesQuery parses the HTTP form of a RulesQuery: k (int), by
// (confidence|support|lift), minconf (float), antecedent (item ids
// separated by commas or spaces). Unknown parameters are ignored so the
// surface can grow; malformed values wrap ErrBadQuery. The returned
// query is already normalized.
func ParseRulesQuery(values url.Values) (RulesQuery, error) {
	var vals [maxQueryParams]string
	for i, key := range rulesParams {
		vals[i] = values.Get(key)
	}
	return parseRulesParams(vals)
}

// parseRawRulesQuery is ParseRulesQuery(url.ParseQuery(raw)) with the
// values read by one scan of raw instead of through the map.
func parseRawRulesQuery(raw string) (RulesQuery, error) {
	return parseRulesParams(queryParams(raw, rulesParams[:]...))
}

// parseRulesParams parses the values of rulesParams, in that order, into
// a normalized query; "" is an absent parameter.
func parseRulesParams(vals [maxQueryParams]string) (RulesQuery, error) {
	var q RulesQuery
	if raw := vals[0]; raw != "" {
		k, err := strconv.Atoi(raw)
		if err != nil {
			return q, fmt.Errorf("%w: k=%q: %v", ErrBadQuery, raw, err)
		}
		q.K = k
	}
	q.By = RankBy(strings.ToLower(strings.TrimSpace(vals[1])))
	if raw := vals[2]; raw != "" {
		c, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return q, fmt.Errorf("%w: minconf=%q: %v", ErrBadQuery, raw, err)
		}
		q.MinConfidence = c
	}
	if raw := vals[3]; raw != "" {
		items, err := ParseItems(raw)
		if err != nil {
			return q, err
		}
		q.Antecedent = items
	}
	return q.normalize()
}

// maxQueryParams is the most keys one queryParams call reads.
const maxQueryParams = 4

// queryParams returns url.ParseQuery(raw).Get(key) for each of keys (at
// most maxQueryParams), in order, from one scan of raw and without
// building the map: the first value of each key among raw's &-separated
// pairs, skipping, as ParseQuery does, empty pairs, pairs that hold a ';'
// and pairs whose key or value does not unescape. Only a key or value
// that needs unescaping allocates.
//
//invcheck:hotpath
func queryParams(raw string, keys ...string) (vals [maxQueryParams]string) {
	want := uint(1)<<len(keys) - 1 // one bit per key not yet found
	for raw != "" && want != 0 {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		k, err := url.QueryUnescape(k)
		if err != nil {
			continue
		}
		for i, key := range keys {
			if want&(1<<i) == 0 || k != key {
				continue
			}
			if v, err := url.QueryUnescape(v); err == nil {
				vals[i] = v
				want &^= 1 << i
			}
			break
		}
	}
	return vals
}

// isItemSep reports whether c separates the ids of an item list.
func isItemSep(c byte) bool { return c == ',' || c == ' ' || c == '\t' }

// ParseItems parses an item-id list separated by commas and/or
// whitespace ("3,1 2"). Empty fields are skipped; an empty list is an
// error for the endpoints that require items, which they check
// themselves. Malformed or negative ids wrap ErrBadQuery.
func ParseItems(raw string) ([]int, error) {
	// Every separator is one ASCII byte, and an ASCII byte is never part
	// of a longer UTF-8 sequence, so fields are found byte by byte.
	fields := 0
	for i := 0; i < len(raw); i++ {
		if !isItemSep(raw[i]) && (i == 0 || isItemSep(raw[i-1])) {
			fields++
		}
	}
	if fields > maxQueryItems {
		return nil, fmt.Errorf("%w: %d items exceeds the %d-item limit", ErrBadQuery, fields, maxQueryItems)
	}
	items := make([]int, 0, fields)
	for i := 0; i < len(raw); {
		if isItemSep(raw[i]) {
			i++
			continue
		}
		j := i + 1
		for j < len(raw) && !isItemSep(raw[j]) {
			j++
		}
		f := raw[i:j]
		i = j
		id, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("%w: item %q: %v", ErrBadQuery, f, err)
		}
		if id < 0 {
			return nil, fmt.Errorf("%w: negative item id %d", ErrBadQuery, id)
		}
		items = append(items, id)
	}
	return items, nil
}

// SupportResult is the answer to an itemset support lookup against one
// view version.
type SupportResult struct {
	// Version is the view the lookup ran against.
	Version uint64 `json:"version"`
	// Items is the normalized queried itemset.
	Items []int `json:"items"`
	// Count is the absolute support (0 when not frequent).
	Count int `json:"count"`
	// NumTx is the view's transaction count, for relative support.
	NumTx int `json:"num_tx"`
	// Frequent reports whether the itemset met minimum support.
	Frequent bool `json:"frequent"`
}

// TopRules answers q against the current view, serving repeats of the
// same normalized query on the same version from the cache. The returned
// slice is shared and read-only; the version identifies the view it was
// computed from.
func (s *Server) TopRules(q RulesQuery) ([]mining.Rule, uint64, error) {
	nq, err := q.normalize()
	if err != nil {
		return nil, 0, err
	}
	v := s.View()
	return s.topRulesOn(v, nq), v.version, nil
}

// topRulesOn answers the normalized query q from v, through the cache.
// Callers that report more of the view than its version (the HTTP
// handlers) load the view once and pass it here, so the whole response
// is one snapshot; they parse q with parseRawRulesQuery, which already
// normalizes it.
func (s *Server) topRulesOn(v *View, q RulesQuery) []mining.Rule {
	key := cacheKey{version: v.version, query: q.key()}
	if rules, ok := s.cache.get(key); ok {
		return rules
	}
	rules := v.topRules(q)
	s.cache.put(key, rules)
	return rules
}

// matchedOnStack is how many matched rule ids a query collects before its
// scratch list spills from the stack to the heap.
const matchedOnStack = 128

// topRules computes the normalized query q from the index, in time
// proportional to the ids it walks plus K — never to the rule set.
func (v *View) topRules(q RulesQuery) []mining.Rule {
	rules := v.rules
	// Confidence is non-increasing in rule id, so the rules at or above
	// MinConfidence are exactly the ids below a cutoff.
	pass := sort.Search(len(rules), func(i int) bool { return rules[i].Confidence < q.MinConfidence })
	if len(q.Antecedent) == 0 {
		n := min(q.K, pass)
		if q.By == ByConfidence {
			return slices.Clone(rules[:n])
		}
		order := v.index.bySupport
		if q.By == ByLift {
			order = v.index.byLift
		}
		out := make([]mining.Rule, 0, n)
		for _, id := range order {
			if len(out) == n {
				break
			}
			if int(id) < pass {
				out = append(out, rules[id])
			}
		}
		return out
	}
	// Any one item's posting list is a superset of the answer; walk the
	// shortest and check the other items on the rules it names.
	list := v.index.contains.of(q.Antecedent[0])
	for _, it := range q.Antecedent[1:] {
		if l := v.index.contains.of(it); len(l) < len(list) {
			list = l
		}
	}
	var buf [matchedOnStack]int32
	matched := buf[:0]
	for _, id := range list {
		if int(id) >= pass || (q.By == ByConfidence && len(matched) == q.K) {
			break
		}
		if len(q.Antecedent) == 1 || containsAll(rules[id].Antecedent, q.Antecedent) {
			matched = append(matched, id)
		}
	}
	if q.By != ByConfidence {
		slices.SortFunc(matched, rankCmp(rules, q.By))
	}
	return v.take(matched, q.K)
}

// take returns the rules of the first k ids.
func (v *View) take(ids []int32, k int) []mining.Rule {
	ids = ids[:min(k, len(ids))]
	out := make([]mining.Rule, len(ids))
	for i, id := range ids {
		out[i] = v.rules[id]
	}
	return out
}

// containsAll reports whether the sorted list haystack contains every
// element of the sorted list needle.
func containsAll(haystack, needle []int) bool {
	i := 0
	for _, want := range needle {
		for i < len(haystack) && haystack[i] < want {
			i++
		}
		if i >= len(haystack) || haystack[i] != want {
			return false
		}
		i++
	}
	return true
}

// ItemsetSupport looks up the absolute support of one itemset in the
// current view. Items may be unordered and duplicated; negative ids are
// an error.
func (s *Server) ItemsetSupport(items ...int) (SupportResult, error) {
	norm, err := normalizeItems(items)
	if err != nil {
		return SupportResult{}, err
	}
	if len(norm) == 0 {
		return SupportResult{}, fmt.Errorf("%w: empty itemset", ErrBadQuery)
	}
	v := s.View()
	res := SupportResult{Version: v.version, Items: norm, NumTx: v.numTx}
	res.Count, res.Frequent = v.Support(norm...)
	return res, nil
}

// Recommend answers "users who have basket also have ...": the top k
// rules whose antecedent is contained in basket and whose consequent
// adds at least one item not already in it, ranked by confidence (ties
// by lift, then the published order). The returned slice is shared and
// read-only.
func (s *Server) Recommend(basket []int, k int) ([]mining.Rule, uint64, error) {
	v := s.View()
	rules, err := s.recommendOn(v, basket, k)
	if err != nil {
		return nil, 0, err
	}
	return rules, v.version, nil
}

// recommendOn answers a recommendation from v, through the cache — the
// single-snapshot counterpart of topRulesOn.
func (s *Server) recommendOn(v *View, basket []int, k int) ([]mining.Rule, error) {
	norm, err := normalizeItems(basket)
	if err != nil {
		return nil, err
	}
	if len(norm) == 0 {
		return nil, fmt.Errorf("%w: empty basket", ErrBadQuery)
	}
	if k < 0 {
		return nil, fmt.Errorf("%w: negative top-k %d", ErrBadQuery, k)
	}
	if k == 0 {
		k = DefaultTopK
	}
	if k > MaxTopK {
		k = MaxTopK
	}
	key := cacheKey{version: v.version, query: recommendKey(norm, k)}
	if rules, ok := s.cache.get(key); ok {
		return rules, nil
	}
	rules := v.recommend(norm, k)
	s.cache.put(key, rules)
	return rules, nil
}

// recommendKey renders a recommendation request as the query half of its
// cache key.
func recommendKey(basket []int, k int) string {
	var buf [96]byte
	b := append(buf[:0], "rec|k="...)
	b = strconv.AppendInt(b, int64(k), 10)
	b = append(b, "|items="...)
	return string(appendItems(b, basket))
}

// recommend computes the recommendation rules for a normalized basket. An
// antecedent inside the basket has its first item in the basket, so the
// first-item posting lists of the basket's items hold every candidate,
// each exactly once; only the matches are ranked.
func (v *View) recommend(basket []int, k int) []mining.Rule {
	rules := v.rules
	var buf [matchedOnStack]int32
	matched := buf[:0]
	for _, it := range basket {
		for _, id := range v.index.first.of(it) {
			r := &rules[id]
			// A consequent inside the basket has nothing new to recommend.
			if containsAll(basket, r.Antecedent) && !containsAll(basket, r.Consequent) {
				matched = append(matched, id)
			}
		}
	}
	slices.SortFunc(matched, func(a, b int32) int {
		if c := cmp.Compare(rules[b].Confidence, rules[a].Confidence); c != 0 {
			return c
		}
		if c := cmp.Compare(rules[b].Lift, rules[a].Lift); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return v.take(matched, k)
}
