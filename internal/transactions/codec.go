package transactions

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// The stable encoding is the snapshot wire format of the durability
// layer (internal/wal): a database encoded today must decode
// byte-identically forever, so the format is pinned by a golden test.
//
// Layout:
//
//	byte    format version (stableFormatV1)
//	uvarint number of transactions
//	per transaction:
//	  uvarint item count
//	  uvarint first item, then uvarint deltas (strictly positive) —
//	  itemsets are sorted ascending with no duplicates, so deltas are
//	  >= 1 and the decoder rejects 0 as corruption.
const stableFormatV1 = 0x01

// ErrBadEncoding reports a stable-encoded stream that is truncated,
// structurally invalid, or violates the sorted-set invariant.
var ErrBadEncoding = errors.New("transactions: invalid stable encoding")

// maxStableItems caps one transaction's declared item count, whatever
// the input length.
const maxStableItems = 1 << 24

// AppendStable appends txs in the stable binary snapshot format to dst and
// returns the extended slice — the byte-slice core every encoder of the
// format (EncodeStable, the WAL snapshot, the dist wire) calls. On an
// itemset that is not sorted ascending, duplicate-free and non-negative it
// returns ErrBadEncoding and dst's contents past its original length are
// unspecified. ShardedDB.AppendStable writes the same bytes from its
// shards' cached row encodings.
func AppendStable(dst []byte, txs []Itemset) ([]byte, error) {
	items := 0
	for _, tx := range txs {
		items += len(tx)
	}
	// Most deltas fit one byte; two per item plus the per-row counts
	// saves nearly every regrowth without a second pass over the items.
	dst = slices.Grow(dst, 1+binary.MaxVarintLen64+len(txs)+2*items)
	return appendStableRows(appendStableHeader(dst, len(txs)), txs)
}

// appendStableHeader appends the header of a stable block of n rows: the
// format version and the row count.
func appendStableHeader(dst []byte, n int) []byte {
	return binary.AppendUvarint(append(dst, stableFormatV1), uint64(n))
}

// appendStableRows appends the row encodings of txs, the part of a stable
// block after its header; it fails on a non-normalized itemset as
// AppendStable does.
func appendStableRows(dst []byte, txs []Itemset) ([]byte, error) {
	for _, tx := range txs {
		dst = binary.AppendUvarint(dst, uint64(len(tx)))
		prev := 0
		for i, item := range tx {
			if item < 0 || (i > 0 && item <= prev) {
				return dst, fmt.Errorf("%w: encoding non-normalized itemset", ErrBadEncoding)
			}
			dst = binary.AppendUvarint(dst, uint64(item-prev))
			prev = item
		}
	}
	return dst, nil
}

// Uvarint reads one canonical uvarint off the front of b — the integer
// read of the stable format and of the dist wire built on it. Truncated,
// overflowing and non-minimal encodings (a trailing zero byte) all report
// ok = false: with one byte string per value, a block that decodes
// re-encodes to exactly the bytes it was decoded from.
func Uvarint(b []byte) (v uint64, n int, ok bool) {
	v, n = binary.Uvarint(b)
	if n <= 0 || (n > 1 && b[n-1] == 0) {
		return 0, 0, false
	}
	return v, n, true
}

// DecodeStableBytes decodes one stable block off the front of b and
// returns the bytes after it. Every returned transaction is validated —
// strictly ascending, hence duplicate-free — so corrupt bytes fail loudly
// rather than silently reordering data. The rows are cut from one item
// arena under one header slice, both sized from the bytes present (an
// item costs at least one byte), so a corrupt count can neither allocate
// beyond a small multiple of len(b) nor read past it; each row's capacity
// is clamped to its length, so appending to one never writes into the
// next. The arena is sized from all of b and the rows keep it alive, so a
// caller that holds several blocks in one buffer passes each block alone
// (the dist wire length-prefixes its blocks for this) rather than the
// block and everything after it.
func DecodeStableBytes(b []byte) (txs []Itemset, rest []byte, err error) {
	if len(b) == 0 {
		return nil, nil, fmt.Errorf("%w: empty input", ErrBadEncoding)
	}
	if b[0] != stableFormatV1 {
		return nil, nil, fmt.Errorf("%w: unknown format version %#x", ErrBadEncoding, b[0])
	}
	rest = b[1:]
	numTx, n, ok := Uvarint(rest)
	if !ok {
		return nil, nil, fmt.Errorf("%w: transaction count", ErrBadEncoding)
	}
	rest = rest[n:]
	// Every transaction costs at least its count byte.
	if numTx > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("%w: %d transactions declared in %d bytes", ErrBadEncoding, numTx, len(rest))
	}
	txs = make([]Itemset, numTx)
	arena := make([]int, len(rest)-int(numTx))
	for t := range txs {
		count, n, ok := Uvarint(rest)
		if !ok {
			return nil, nil, fmt.Errorf("%w: transaction %d: item count", ErrBadEncoding, t)
		}
		rest = rest[n:]
		// The arena has one slot per input byte not owed to a count, so a
		// row that does not fit it cannot be followed by its items and
		// the counts of the rows still to come.
		if count > maxStableItems || count > uint64(len(arena)) {
			return nil, nil, fmt.Errorf("%w: transaction %d declares %d items", ErrBadEncoding, t, count)
		}
		row := arena[:count:count]
		arena = arena[count:]
		prev := uint64(0)
		for i := range row {
			// Most deltas are one byte; reading those here keeps the call
			// out of the loop that decodes every item of a shard.
			var delta uint64
			if len(rest) > 0 && rest[0] < 0x80 {
				delta, rest = uint64(rest[0]), rest[1:]
			} else if d, n, ok := Uvarint(rest); ok {
				delta, rest = d, rest[n:]
			} else {
				return nil, nil, fmt.Errorf("%w: transaction %d item %d", ErrBadEncoding, t, i)
			}
			if i > 0 && delta == 0 {
				return nil, nil, fmt.Errorf("%w: transaction %d: zero delta (duplicate item)", ErrBadEncoding, t)
			}
			if delta > math.MaxInt-prev {
				return nil, nil, fmt.Errorf("%w: transaction %d: item overflows int", ErrBadEncoding, t)
			}
			prev += delta
			row[i] = int(prev)
		}
		txs[t] = row
	}
	return txs, rest, nil
}

// EncodeStable writes txs in the stable binary snapshot format.
func EncodeStable(w io.Writer, txs []Itemset) error {
	b, err := AppendStable(nil, txs)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// DecodeStable reads one stable-encoded transaction list from r, which it
// drains; bytes after the block are ignored.
func DecodeStable(r io.Reader) ([]Itemset, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEncoding, err)
	}
	txs, _, err := DecodeStableBytes(b)
	return txs, err
}
