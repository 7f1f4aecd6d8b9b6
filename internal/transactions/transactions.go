// Package transactions provides the market-basket substrate for the
// association-rule and sequential-pattern miners: itemsets, transaction
// databases in horizontal and vertical layouts, and plain-text I/O.
//
// Items are dense non-negative integer ids. An Itemset is always kept
// sorted ascending with no duplicates, which makes subset tests,
// lexicographic comparison, and the Apriori candidate join O(k).
//
// Storage comes in three layouts, each the substrate of one mining mode:
// DB is the flat horizontal database (one itemset per transaction) whose
// Shards method hands out the zero-copy contiguous views the
// count-distribution engine scans in parallel; VerticalBits is the bitset
// vertical layout Eclat intersects, built from a DB; ShardedDB is the
// updatable store of the incremental backend — fixed-capacity,
// version-stamped shards where appends fill the tail, deletes stay within
// their shard, and a mutation dirties exactly one shard and, once a
// maintainer tracks the store, is journalled for it to count. Each shard
// also keeps the stable encoding of its rows under its version, so a WAL
// snapshot of a ShardedDB re-encodes only the shards mutated since the
// last one.
package transactions

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Itemset is a sorted set of item ids.
type Itemset []int

// NewItemset returns a sorted, deduplicated itemset built from items.
func NewItemset(items ...int) Itemset {
	cp := append([]int(nil), items...)
	sort.Ints(cp)
	out := cp[:0]
	for i, v := range cp {
		if i == 0 || v != cp[i-1] {
			out = append(out, v)
		}
	}
	return Itemset(out)
}

// ContainsAll reports whether every item of sub is in s (subset test).
// Both sets must be sorted, which NewItemset guarantees.
func (s Itemset) ContainsAll(sub Itemset) bool {
	i := 0
	for _, want := range sub {
		for i < len(s) && s[i] < want {
			i++
		}
		if i >= len(s) || s[i] != want {
			return false
		}
		i++
	}
	return true
}

// Equal reports whether two itemsets contain the same items.
func (s Itemset) Equal(o Itemset) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Compare orders itemsets lexicographically, shorter-first on ties.
func (s Itemset) Compare(o Itemset) int {
	n := len(s)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if s[i] != o[i] {
			if s[i] < o[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(s) < len(o):
		return -1
	case len(s) > len(o):
		return 1
	default:
		return 0
	}
}

// Union returns the sorted union of s and o.
func (s Itemset) Union(o Itemset) Itemset {
	out := make(Itemset, 0, len(s)+len(o))
	i, j := 0, 0
	for i < len(s) && j < len(o) {
		switch {
		case s[i] < o[j]:
			out = append(out, s[i])
			i++
		case s[i] > o[j]:
			out = append(out, o[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, o[j:]...)
	return out
}

// Key returns a canonical string key for map indexing. The digits are
// rendered into a stack buffer, so the returned string is the only
// allocation for any itemset whose key fits it.
func (s Itemset) Key() string {
	var buf [64]byte
	b := buf[:0]
	for i, v := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(b)
}

// String renders the itemset as "{a, b, c}".
func (s Itemset) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, v := range s {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(strconv.Itoa(v))
	}
	sb.WriteByte('}')
	return sb.String()
}

// Clone returns an independent copy of the itemset.
func (s Itemset) Clone() Itemset {
	return append(Itemset(nil), s...)
}

// Errors returned by this package.
var (
	ErrNegativeItem = errors.New("transactions: negative item id")
	ErrEmptyDB      = errors.New("transactions: empty database")
	// ErrTooManyTransactions reports an append to a store that already
	// holds math.MaxInt32 transactions. The bound keeps every support
	// count in the int32 counters the scans count into.
	ErrTooManyTransactions = errors.New("transactions: store holds math.MaxInt32 transactions")
)

// checkRoom returns ErrTooManyTransactions when a store of rows
// transactions has no room for one more: the one comparison behind the
// append guard of DB.Add and ShardedDB.Append.
func checkRoom(rows int) error {
	if rows >= math.MaxInt32 {
		return fmt.Errorf("%w: %d rows", ErrTooManyTransactions, rows)
	}
	return nil
}

// DB is a horizontal transaction database: one itemset per transaction.
type DB struct {
	Transactions []Itemset
	numItems     int // 1 + max item id seen, maintained by Add
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{} }

// Add appends a transaction, normalising it to a sorted set. A database
// of math.MaxInt32 transactions refuses it with ErrTooManyTransactions.
func (db *DB) Add(items ...int) error {
	if err := checkRoom(len(db.Transactions)); err != nil {
		return err
	}
	for _, it := range items {
		if it < 0 {
			return fmt.Errorf("%w: %d", ErrNegativeItem, it)
		}
	}
	s := NewItemset(items...)
	if len(s) > 0 && s[len(s)-1]+1 > db.numItems {
		db.numItems = s[len(s)-1] + 1
	}
	db.Transactions = append(db.Transactions, s)
	return nil
}

// Len returns the number of transactions.
func (db *DB) Len() int { return len(db.Transactions) }

// NumItems returns 1 + the largest item id in the database.
func (db *DB) NumItems() int { return db.numItems }

// AbsoluteSupport converts a relative support in (0, 1] to the minimum
// transaction count, rounding up and never below 1.
func (db *DB) AbsoluteSupport(rel float64) int {
	return absoluteSupport(rel, len(db.Transactions))
}

// absoluteSupport is the one shared rounding rule for relative→absolute
// support. DB and ShardedDB must agree exactly here: the incremental
// backend's byte-identity guarantee compares thresholds computed through
// both paths.
func absoluteSupport(rel float64, numTx int) int {
	n := int(rel*float64(numTx) + 0.999999999)
	if n < 1 {
		n = 1
	}
	return n
}

// Shard is a zero-copy horizontal view of a contiguous run of the
// database's transactions, for count-distribution parallelism: each worker
// scans one shard into private counters which are merged after the pass.
// Base is the global transaction id of Transactions[0], so workers can
// reconstruct global tids (Base+i) for structures that deduplicate by tid.
type Shard struct {
	Transactions []Itemset
	Base         int
}

// Shards splits the database into at most n contiguous zero-copy views of
// near-equal size. Fewer than n shards are returned when there are fewer
// than n transactions; n < 1 is treated as 1. The views alias the
// database's backing slice — callers must not mutate transactions through
// them.
func (db *DB) Shards(n int) []Shard {
	if n < 1 {
		n = 1
	}
	if n > len(db.Transactions) {
		n = len(db.Transactions)
	}
	if n == 0 {
		return nil
	}
	out := make([]Shard, 0, n)
	per := len(db.Transactions) / n
	rem := len(db.Transactions) % n
	start := 0
	for i := 0; i < n; i++ {
		size := per
		if i < rem {
			size++
		}
		out = append(out, Shard{Transactions: db.Transactions[start : start+size], Base: start})
		start += size
	}
	return out
}

// ReadBasket parses whitespace-separated item ids, one transaction per
// line. Blank lines and lines starting with '#' are skipped.
func ReadBasket(r io.Reader) (*DB, error) {
	db := NewDB()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		items := make([]int, 0, len(fields))
		for _, f := range fields {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("transactions: line %d: %w", lineNo, err)
			}
			items = append(items, v)
		}
		if err := db.Add(items...); err != nil {
			return nil, fmt.Errorf("transactions: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("transactions: scanning: %w", err)
	}
	return db, nil
}

// WriteBasket writes the database in the ReadBasket format.
func (db *DB) WriteBasket(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, t := range db.Transactions {
		for i, item := range t {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.Itoa(item)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
