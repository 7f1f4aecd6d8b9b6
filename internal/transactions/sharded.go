package transactions

import (
	"errors"
	"fmt"
)

// Errors returned by ShardedDB.
var (
	// ErrTIDRange reports a delete of a transaction id outside [0, Len()).
	ErrTIDRange = errors.New("transactions: transaction id out of range")
)

// DefaultShardCap is the default per-shard transaction capacity of a
// ShardedDB. It is a multiple of 64 so that per-shard bitset views stay
// word-aligned (see ShardedDB).
const DefaultShardCap = 1024

// versionedShard is one fixed-capacity run of transactions with a version
// counter that is bumped on every mutation, so replicas keyed by (shard,
// version) can tell clean shards from dirty ones without diffing contents.
type versionedShard struct {
	txs     []Itemset
	version uint64
}

// ShardedDB is the updatable counterpart of DB: transactions are stored in
// fixed-capacity shards, appends fill the last shard, and deletes compact
// within the owning shard only. Every mutation bumps the owning shard's
// version, which is how the distributed engine (internal/dist) knows which
// shard replicas on its workers are stale and re-ships only those.
//
// Once a maintainer has called Track, every mutation's itemset is also
// journalled, and Drain hands the journal over: the incremental mining
// backend (internal/assoc) absorbs an update by counting exactly those
// itemsets, so its work follows the update and not the store. Mutations
// counts every mutation whether or not it was journalled, which is how a
// maintainer tells a complete journal from one that began late or that
// someone else drained. An untracked store journals nothing.
//
// The shard capacity is always rounded up to a multiple of 64 so that a
// per-shard bitset over shard-local transaction ids occupies whole 64-bit
// words; concatenating per-shard bitsets into a database-wide vertical view
// is then pure word copying (see ConcatBitsets) with no bit shifting.
//
// A transaction's global id is its position in the concatenation of the
// live shards, so deletes shift the ids of later transactions. Support
// counts do not depend on ids, only on the multiset of transactions, which
// is why shard-local compaction preserves mining results exactly.
//
// ShardedDB is not safe for concurrent mutation; the incremental miner
// reads shards concurrently only between mutations.
type ShardedDB struct {
	shardCap int
	shards   []*versionedShard
	numItems int // 1 + max item id ever seen (monotone, like DB's)
	total    int // live transactions across shards

	mutations uint64    // appends + deletes since the store was created
	tracking  bool      // journal mutations (see Track)
	added     []Itemset // journalled appends since the last Drain
	deleted   []Itemset // journalled deletes since the last Drain
}

// NewShardedDB returns an empty sharded database. shardCap <= 0 selects
// DefaultShardCap; any other value is rounded up to a multiple of 64.
func NewShardedDB(shardCap int) *ShardedDB {
	if shardCap <= 0 {
		shardCap = DefaultShardCap
	}
	if r := shardCap % 64; r != 0 {
		shardCap += 64 - r
	}
	return &ShardedDB{shardCap: shardCap}
}

// NewShardedDBFrom bulk-loads db into a new sharded database with the
// given shard capacity (see NewShardedDB for its normalisation). The
// itemsets are shared with db, not copied; treat db as read-only afterwards.
func NewShardedDBFrom(db *DB, shardCap int) *ShardedDB {
	s := NewShardedDB(shardCap)
	for _, tx := range db.Transactions {
		s.appendSet(tx)
	}
	return s
}

// ShardCap returns the (normalised) per-shard transaction capacity.
func (s *ShardedDB) ShardCap() int { return s.shardCap }

// Len returns the number of live transactions.
func (s *ShardedDB) Len() int { return s.total }

// NumShards returns the number of shards, including any emptied by deletes.
func (s *ShardedDB) NumShards() int { return len(s.shards) }

// NumItems returns 1 + the largest item id ever added. Like DB.NumItems it
// is monotone: deleting the last transaction containing the largest item
// does not shrink it, which only costs zero-count slots in pass-1 arrays.
func (s *ShardedDB) NumItems() int { return s.numItems }

// AbsoluteSupport converts a relative support in (0, 1] to the minimum
// transaction count over the current live size, with DB.AbsoluteSupport's
// exact rounding (one shared helper) so thresholds match a from-scratch
// run on a snapshot.
func (s *ShardedDB) AbsoluteSupport(rel float64) int {
	return absoluteSupport(rel, s.total)
}

// Append adds one transaction, normalising it to a sorted set, into the
// last shard (opening a new shard when the last one is full). Only that
// shard's version changes.
func (s *ShardedDB) Append(items ...int) error {
	for _, it := range items {
		if it < 0 {
			return fmt.Errorf("%w: %d", ErrNegativeItem, it)
		}
	}
	s.appendSet(NewItemset(items...))
	return nil
}

func (s *ShardedDB) appendSet(tx Itemset) {
	if len(tx) > 0 && tx[len(tx)-1]+1 > s.numItems {
		s.numItems = tx[len(tx)-1] + 1
	}
	last := len(s.shards) - 1
	if last < 0 || len(s.shards[last].txs) >= s.shardCap {
		s.shards = append(s.shards, &versionedShard{})
		last++
	}
	sh := s.shards[last]
	sh.txs = append(sh.txs, tx)
	sh.version++
	s.total++
	s.mutations++
	if s.tracking {
		s.added = append(s.added, tx)
	}
}

// DeleteAt removes the transaction with global id tid (its position in the
// live concatenation) and returns it. The owning shard compacts in place,
// so only its version changes; later shards keep their contents and
// versions even though their transactions' global ids shift down.
func (s *ShardedDB) DeleteAt(tid int) (Itemset, error) {
	if tid < 0 || tid >= s.total {
		return nil, fmt.Errorf("%w: %d (len %d)", ErrTIDRange, tid, s.total)
	}
	for _, sh := range s.shards {
		if tid >= len(sh.txs) {
			tid -= len(sh.txs)
			continue
		}
		tx := sh.txs[tid]
		sh.txs = append(sh.txs[:tid:tid], sh.txs[tid+1:]...)
		sh.version++
		s.total--
		s.mutations++
		if s.tracking {
			s.deleted = append(s.deleted, tx)
		}
		return tx, nil
	}
	// Unreachable: the shard lengths sum to s.total.
	return nil, fmt.Errorf("%w: %d", ErrTIDRange, tid)
}

// Mutations returns how many appends and deletes the store has applied
// since it was created (bulk loads included). It never decreases.
func (s *ShardedDB) Mutations() uint64 { return s.mutations }

// Track starts journalling: from now on every Append and DeleteAt records
// its itemset until Drain collects it. Whatever was journalled before is
// dropped, so the caller's picture of the store must start at the current
// contents and Mutations.
func (s *ShardedDB) Track() {
	s.tracking = true
	s.added, s.deleted = nil, nil
}

// Untrack stops journalling and drops the journal.
func (s *ShardedDB) Untrack() {
	s.tracking = false
	s.added, s.deleted = nil, nil
}

// Drain returns the itemsets appended and deleted since the last Drain (or
// Track) and empties the journal; each mutation is handed out exactly once.
// A transaction appended and then deleted appears in both lists. The
// itemsets are shared with the store: treat them as read-only.
func (s *ShardedDB) Drain() (added, deleted []Itemset) {
	added, deleted = s.added, s.deleted
	s.added, s.deleted = nil, nil
	return added, deleted
}

// ShardView returns shard i as a zero-copy Shard (Base set to the shard's
// current global offset) together with its version. The view aliases the
// store; callers must not mutate transactions through it and must not hold
// it across mutations.
func (s *ShardedDB) ShardView(i int) (Shard, uint64) {
	base := 0
	for j := 0; j < i; j++ {
		base += len(s.shards[j].txs)
	}
	sh := s.shards[i]
	return Shard{Transactions: sh.txs, Base: base}, sh.version
}

// Version returns shard i's version counter.
func (s *ShardedDB) Version(i int) uint64 { return s.shards[i].version }

// ToVerticalBitset builds the database-wide vertical bitset layout by
// constructing one bitset per item per shard and concatenating them with
// ConcatBitsets — whole-word copies for every full shard, since shard
// capacities are multiples of 64. This is the word-aligned bridge for
// vertical-layout (Eclat-style) backends over the updatable store; the
// result is identical to Snapshot().ToVerticalBitset().
func (s *ShardedDB) ToVerticalBitset() *VerticalBits {
	parts := make(map[int][]*Bitset)
	for si, sh := range s.shards {
		shardBits := make(map[int]*Bitset)
		for off, tx := range sh.txs {
			for _, item := range tx {
				b := shardBits[item]
				if b == nil {
					b = NewBitset(len(sh.txs))
					shardBits[item] = b
				}
				b.Set(off)
			}
		}
		// Every item's part list must stay aligned with the shard
		// sequence, so items absent from this shard get an empty part and
		// items first seen now get empty parts for the shards passed.
		for item := range parts {
			if shardBits[item] == nil {
				shardBits[item] = NewBitset(len(sh.txs))
			}
		}
		for item, b := range shardBits {
			if parts[item] == nil {
				for j := 0; j < si; j++ {
					parts[item] = append(parts[item], NewBitset(len(s.shards[j].txs)))
				}
			}
			parts[item] = append(parts[item], b)
		}
	}
	v := &VerticalBits{Bits: make(map[int]*Bitset, len(parts)), NumTx: s.total}
	for item, ps := range parts {
		v.Bits[item] = ConcatBitsets(ps...)
	}
	return v
}

// Snapshot materialises the live transactions as a plain DB, recomputing
// NumItems from the live contents the way a fresh load would, so mining the
// snapshot is byte-identical to mining a from-scratch database. The
// itemsets are shared with the store; treat the snapshot as read-only.
func (s *ShardedDB) Snapshot() *DB {
	db := &DB{Transactions: make([]Itemset, 0, s.total)}
	for _, sh := range s.shards {
		for _, tx := range sh.txs {
			if len(tx) > 0 && tx[len(tx)-1]+1 > db.numItems {
				db.numItems = tx[len(tx)-1] + 1
			}
			db.Transactions = append(db.Transactions, tx)
		}
	}
	return db
}
