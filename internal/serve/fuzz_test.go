package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/url"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/mining"
)

// FuzzParseRulesQuery drives the HTTP query parser with arbitrary query
// strings: it must never panic, the handler's one-scan path must give what
// ParseRulesQuery gives the url.ParseQuery map (the same query, or the same
// error text), every accepted query must be a fixpoint of normalize (so
// cache keys are stable), and every rejection must wrap ErrBadQuery (the
// 400 class) — never anything the handler would turn into a 500.
func FuzzParseRulesQuery(f *testing.F) {
	seeds := []string{
		"",
		"k=5&by=lift",
		"k=0&by=confidence&minconf=0.5",
		"antecedent=1,2,3&k=100",
		"antecedent=3+1++2",
		"by=support&minconf=1",
		"k=-1",
		"k=99999999999999999999",
		"by=BOGUS",
		"minconf=NaN",
		"minconf=+Inf",
		"minconf=1e-300",
		"antecedent=-1",
		"antecedent=,,,",
		"antecedent=1,9223372036854775808",
		"k=5&k=7",
		"%zz=bad",
		"antecedent=%31%2C%32",
		"k=1;by=lift&by=support",
		"k=%zz&k=3&minconf=0.5&minconf=x",
		"antecedent=&antecedent=2,1&by=+Lift+",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		values, _ := url.ParseQuery(raw) // the handler read r.URL.Query(), which drops the error too
		q, err := ParseRulesQuery(values)
		rq, rerr := parseRawRulesQuery(raw)
		// A rejected query is compared by its error text alone: it may
		// hold a NaN, which no DeepEqual matches.
		if (err == nil) != (rerr == nil) || (err != nil && err.Error() != rerr.Error()) || (err == nil && !reflect.DeepEqual(q, rq)) {
			t.Fatalf("raw query %q parses to %+v, %v; the url.Values path gives %+v, %v", raw, rq, rerr, q, err)
		}
		if err != nil {
			if !errors.Is(err, ErrBadQuery) {
				t.Fatalf("rejection %v does not wrap ErrBadQuery", err)
			}
			return
		}
		again, err := q.normalize()
		if err != nil {
			t.Fatalf("accepted query %+v fails re-normalization: %v", q, err)
		}
		if !reflect.DeepEqual(q, again) {
			t.Fatalf("normalize is not a fixpoint: %+v != %+v", q, again)
		}
		if q.key() != again.key() {
			t.Fatalf("cache key unstable for %+v", q)
		}
		if q.K < 1 || q.K > MaxTopK {
			t.Fatalf("accepted query has out-of-bounds K %d", q.K)
		}
		for i, it := range q.Antecedent {
			if it < 0 || (i > 0 && q.Antecedent[i-1] >= it) {
				t.Fatalf("accepted antecedent not sorted/deduped/non-negative: %v", q.Antecedent)
			}
		}
	})
}

// parseItemsFieldsFunc is the strings.FieldsFunc parser ParseItems
// replaced, kept as FuzzParseItems' reference.
func parseItemsFieldsFunc(raw string) ([]int, error) {
	fields := strings.FieldsFunc(raw, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t'
	})
	if len(fields) > maxQueryItems {
		return nil, fmt.Errorf("%w: %d items exceeds the %d-item limit", ErrBadQuery, len(fields), maxQueryItems)
	}
	items := make([]int, 0, len(fields))
	for _, f := range fields {
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

// FuzzParseItems drives the item-list parser: it gives the items and the
// error text of parseItemsFieldsFunc, never panics, its rejections wrap
// ErrBadQuery, and accepted lists contain only non-negative ids within the
// documented bound.
func FuzzParseItems(f *testing.F) {
	seeds := []string{
		"",
		"1,2,3",
		"3 1\t2",
		"0",
		"-5",
		"1,,2",
		"9999999999999999999999",
		"1;2",
		"a b",
		" 7 ",
		"\t,1\xff2,,\xe2\x80\x83 3",
		strings.Repeat("1,", maxQueryItems) + "x",
		strings.Repeat(" 9", maxQueryItems) + "\t",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		items, err := ParseItems(raw)
		want, werr := parseItemsFieldsFunc(raw)
		if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) || !reflect.DeepEqual(items, want) {
			t.Fatalf("ParseItems(%q) = %v, %v; FieldsFunc gives %v, %v", raw, items, err, want, werr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadQuery) {
				t.Fatalf("rejection %v does not wrap ErrBadQuery", err)
			}
			return
		}
		if len(items) > maxQueryItems {
			t.Fatalf("accepted %d items over the %d limit", len(items), maxQueryItems)
		}
		for _, it := range items {
			if it < 0 {
				t.Fatalf("accepted negative item %d", it)
			}
		}
		if _, err := normalizeItems(items); err != nil {
			t.Fatalf("accepted items %v fail normalization: %v", items, err)
		}
	})
}

// FuzzQueryValue checks queryParams, the handlers' one-scan parameter
// reader, against url.ParseQuery(raw).Get(key) on arbitrary raw queries
// (';' segments, bad and good escapes, '+', repeated and empty keys), for
// every key a handler reads: alone, and in the groups the handlers ask
// for together.
func FuzzQueryValue(f *testing.F) {
	seeds := []string{
		"",
		"tid=5",
		"tid=5&tid=6",
		"x=1&tid=7",
		"tid",
		"tid=",
		"=5&tid=3",
		"&&tid=4&",
		"tid=1;x=2&tid=3",
		"a=1;tid=2",
		"tid=%zz&tid=9",
		"%zz=1&tid=8",
		"t%69d=10",
		"tid=%31%32",
		"tid=+1",
		"ti+d=1&tid=2",
		"tid=1=2",
		"TID=1&tid=2",
		"k=5&by=lift&minconf=0.5&antecedent=1,2",
		"antecedent=1&k=2&k=3;x&by=%zz&by=support&minconf=",
		"items=1%2C2&k=&items=3",
		"by=a&by=b&k=1&antecedent=%&minconf=+0.5&antecedent=4&items=",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		values, _ := url.ParseQuery(raw) // the handlers read r.URL.Query(), which drops the error too
		for _, keys := range [][]string{rulesParams[:], {"items", "k"}, {"items"}, {"tid"}, {"minconf"}, {"antecedent"}, {"by"}} {
			got := queryParams(raw, keys...)
			for i, key := range keys {
				if want := values.Get(key); got[i] != want {
					t.Fatalf("queryParams(%q, %q)[%d] = %q, url.ParseQuery gives %q", raw, keys, i, got[i], want)
				}
			}
		}
	})
}

// FuzzAppendRule checks the reply appenders against json.Marshal of the
// encoding/json reference types over arbitrary float64 bits (exponent
// form, -0, subnormals, integers past 2^53), negative and large ints, and
// item lists, nil ones included. NaN and ±Inf are skipped: json.Marshal
// refuses them, and no publish produces one (a rule's confidence and lift
// divide by supports that are never zero).
func FuzzAppendRule(f *testing.F) {
	f.Add(math.Float64bits(0.75), math.Float64bits(1.5), int64(42), uint64(1), int64(100), []byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0}, uint8(1), false, true)
	f.Add(math.Float64bits(1e-7), math.Float64bits(1e21), int64(-1), uint64(math.MaxUint64), int64(math.MinInt64), []byte{}, uint8(0), true, false)
	f.Add(math.Float64bits(math.Copysign(0, -1)), math.Float64bits(5e-324), int64(math.MaxInt64), uint64(0), int64(0), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(9), false, false)
	f.Add(math.Float64bits(1<<53+1), math.Float64bits(-123456789e300), int64(1<<53+1), uint64(7), int64(-7), []byte{0, 0, 0, 0, 0, 0, 0, 0x80, 9, 9}, uint8(1), true, true)
	f.Add(math.Float64bits(9.999999999999999e-7), math.Float64bits(999999999999999999999.0), int64(3), uint64(3), int64(3), []byte{3}, uint8(0), false, true)
	f.Fuzz(func(t *testing.T, confBits, liftBits uint64, sup int64, version uint64, numTx int64, data []byte, split uint8, nilItems, frequent bool) {
		conf, lift := math.Float64frombits(confBits), math.Float64frombits(liftBits)
		if math.IsNaN(conf) || math.IsInf(conf, 0) || math.IsNaN(lift) || math.IsInf(lift, 0) {
			t.Skip()
		}
		var items []int
		if !nilItems {
			items = make([]int, 0, len(data)/8)
		}
		for i := 0; i+8 <= len(data); i += 8 {
			items = append(items, int(int64(binary.LittleEndian.Uint64(data[i:]))))
		}
		cut := min(int(split), len(items))
		r := mining.Rule{Antecedent: items[:cut:cut], Consequent: items[cut:], Support: int(sup), Confidence: conf, Lift: lift}
		if nilItems && cut == 0 {
			r.Antecedent = nil
		}
		check := func(what string, got []byte, v any) {
			t.Helper()
			want, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("%s: json.Marshal: %v", what, err)
			}
			if string(got) != string(want) {
				t.Fatalf("%s: appended %s, json.Marshal gives %s", what, got, want)
			}
		}
		check("rule", appendRule([]byte{}, &r), toRuleJSON([]mining.Rule{r})[0])
		for n := 0; n <= 2; n++ {
			rules := slices.Repeat([]mining.Rule{r}, n)
			check("rules", appendRules(nil, version, int(numTx), rules),
				rulesResponse{Version: version, NumTx: int(numTx), Rules: toRuleJSON(rules)})
		}
		res := SupportResult{Version: version, Items: r.Antecedent, Count: int(sup), NumTx: int(numTx), Frequent: frequent}
		check("support", appendSupport(make([]byte, 0, 1), &res), res)
	})
}

// FuzzRadixRank checks radixRank against slices.Sort of the same keys
// packed above their ids. Each key takes four bytes of data and keeps
// only the bits of mask, so masks with few bits set draw long runs of
// equal keys and keys that differ in one byte only.
func FuzzRadixRank(f *testing.F) {
	f.Add([]byte{}, uint32(0xffffffff))
	f.Add([]byte{1, 2, 3, 4, 1, 2, 3, 4, 9, 9, 9, 9}, uint32(0xffffffff))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint32(0xff))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint32(0x01000000))
	f.Fuzz(func(t *testing.T, data []byte, mask uint32) {
		keys := make([]uint32, len(data)/4)
		for i := range keys {
			keys[i] = binary.LittleEndian.Uint32(data[4*i:]) & mask
		}
		checkRadixRank(t, keys)
	})
}

// checkRadixRank runs radixRank over keys, with a dirty pass buffer, and
// compares its ids with the low halves of the packed keys key<<32 | id
// after slices.Sort.
func checkRadixRank(t *testing.T, keys []uint32) {
	t.Helper()
	packed := make([]uint64, len(keys))
	for i, k := range keys {
		packed[i] = uint64(k)<<32 | uint64(i)
	}
	slices.Sort(packed)
	ids, tmp := make([]int32, len(keys)), make([]int32, len(keys))
	for i := range tmp {
		tmp[i] = -1
	}
	radixRank(keys, ids, tmp)
	for i, p := range packed {
		if ids[i] != int32(uint32(p)) {
			t.Fatalf("%d keys: radixRank puts id %d at %d, slices.Sort puts id %d", len(keys), ids[i], i, uint32(p))
		}
	}
}
