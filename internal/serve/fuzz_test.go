package serve

import (
	"encoding/binary"
	"errors"
	"net/url"
	"reflect"
	"slices"
	"testing"
)

// FuzzParseRulesQuery drives the HTTP query parser with arbitrary query
// strings: it must never panic, every accepted query must be a fixpoint
// of normalize (so cache keys are stable), and every rejection must wrap
// ErrBadQuery (the 400 class) — never anything the handler would turn
// into a 500.
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
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		values, err := url.ParseQuery(raw)
		if err != nil {
			t.Skip()
		}
		q, err := ParseRulesQuery(values)
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

// FuzzParseItems drives the item-list parser: no panics, rejections wrap
// ErrBadQuery, accepted lists contain only non-negative ids within the
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
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		items, err := ParseItems(raw)
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

// FuzzQueryValue checks queryValue, the delete handler's tid reader,
// against url.ParseQuery(raw).Get("tid") on arbitrary raw queries: ';'
// segments, bad and good escapes, '+', repeated and empty keys.
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
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		values, _ := url.ParseQuery(raw) // the handler read r.URL.Query(), which drops the error too
		if got, want := queryValue(raw, "tid"), values.Get("tid"); got != want {
			t.Fatalf("queryValue(%q) = %q, url.ParseQuery gives %q", raw, got, want)
		}
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
