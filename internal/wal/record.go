package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/transactions"
)

// Wire formats. A log segment is a header followed by records:
//
//	segment header:  segMagic | uvarint start-seq | crc32c(start-seq bytes)
//	record:          uvarint payload-len | payload | crc32c(payload)
//	payload:         uvarint seq | varint kind | varint tid |
//	                 uvarint item-count | varint items...
//
// A snapshot file is:
//
//	snapMagic | uvarint body-len | body | crc32c(body)
//	body:     uvarint ops | stable DB encoding (internal/transactions)
//
// All checksums are CRC-32C (Castagnoli). Ops are persisted opaquely —
// kind, tid and items round-trip verbatim, including values the store
// will reject on replay — because a rejected op still advances the serve
// tier's op sequence, and replay must mirror the skip, not hide it.
const (
	segMagic  = "DMWAL01\n"
	snapMagic = "DMSNAP1\n"
)

// MaxRecordSize caps one record's payload, so a corrupt length prefix
// cannot drive a giant allocation or scan past a torn tail.
const MaxRecordSize = 16 << 20

// maxSnapshotSize caps a snapshot body (1 GiB) against corrupt lengths.
const maxSnapshotSize = 1 << 30

// Typed decode errors. Recovery truncates the log at the first record
// failing with either; the fuzz target asserts the decoder returns these
// (never panics, never over-reads).
var (
	// ErrTruncatedRecord reports a record cut short — a torn tail that a
	// crash mid-write legitimately produces.
	ErrTruncatedRecord = errors.New("wal: truncated record")
	// ErrCorruptRecord reports structural damage: a failed checksum, an
	// oversized length, or a malformed payload.
	ErrCorruptRecord = errors.New("wal: corrupt record")
	// ErrBadSegment reports an unreadable segment header.
	ErrBadSegment = errors.New("wal: invalid segment header")
	// ErrBadSnapshot reports an unreadable snapshot file.
	ErrBadSnapshot = errors.New("wal: invalid snapshot")
)

// castagnoli is the CRC-32C table shared by all checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Op is one logged mutation. The log treats it opaquely: Kind tags the
// mutation (the serving tier's append/delete), Items and TID carry the
// payload, and all three round-trip through the record codec verbatim.
type Op struct {
	// Kind is the mutation tag (internal/serve's OpKind values).
	Kind int
	// Items is the transaction payload of an append.
	Items []int
	// TID is the target of a delete.
	TID int
}

// appendRecord appends the encoded record for op at seq to buf.
func appendRecord(buf []byte, seq uint64, op Op) []byte {
	payload := binary.AppendUvarint(nil, seq)
	payload = binary.AppendVarint(payload, int64(op.Kind))
	payload = binary.AppendVarint(payload, int64(op.TID))
	payload = binary.AppendUvarint(payload, uint64(len(op.Items)))
	for _, it := range op.Items {
		payload = binary.AppendVarint(payload, int64(it))
	}
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
}

// decodeRecord decodes the first record in data, returning the op, its
// sequence number and the encoded length consumed. A clean cut at the
// end of data is ErrTruncatedRecord; anything structurally wrong is
// ErrCorruptRecord. The decoder never reads past len(data) and never
// allocates more than the payload it has actually received.
func decodeRecord(data []byte) (Op, uint64, int, error) {
	length, n := binary.Uvarint(data)
	if n == 0 {
		return Op{}, 0, 0, ErrTruncatedRecord
	}
	if n < 0 || length > MaxRecordSize {
		return Op{}, 0, 0, fmt.Errorf("%w: record length", ErrCorruptRecord)
	}
	total := n + int(length) + 4
	if len(data) < total {
		return Op{}, 0, 0, ErrTruncatedRecord
	}
	payload := data[n : n+int(length)]
	want := binary.LittleEndian.Uint32(data[n+int(length):])
	if crc32.Checksum(payload, castagnoli) != want {
		return Op{}, 0, 0, fmt.Errorf("%w: checksum mismatch", ErrCorruptRecord)
	}
	op, seq, err := decodePayload(payload)
	if err != nil {
		return Op{}, 0, 0, err
	}
	return op, seq, total, nil
}

// decodePayload decodes a checksummed record payload.
func decodePayload(payload []byte) (Op, uint64, error) {
	seq, n := binary.Uvarint(payload)
	if n <= 0 {
		return Op{}, 0, fmt.Errorf("%w: record seq", ErrCorruptRecord)
	}
	rest := payload[n:]
	kind, n := binary.Varint(rest)
	if n <= 0 {
		return Op{}, 0, fmt.Errorf("%w: record kind", ErrCorruptRecord)
	}
	rest = rest[n:]
	tid, n := binary.Varint(rest)
	if n <= 0 {
		return Op{}, 0, fmt.Errorf("%w: record tid", ErrCorruptRecord)
	}
	rest = rest[n:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return Op{}, 0, fmt.Errorf("%w: record item count", ErrCorruptRecord)
	}
	rest = rest[n:]
	// Each item costs at least one byte, so a count beyond the remaining
	// payload is corruption, not a short buffer.
	if count > uint64(len(rest)) {
		return Op{}, 0, fmt.Errorf("%w: item count %d exceeds payload", ErrCorruptRecord, count)
	}
	op := Op{Kind: int(kind), TID: int(tid)}
	if count > 0 {
		op.Items = make([]int, count)
		for i := range op.Items {
			item, n := binary.Varint(rest)
			if n <= 0 {
				return Op{}, 0, fmt.Errorf("%w: record item %d", ErrCorruptRecord, i)
			}
			op.Items[i] = int(item)
			rest = rest[n:]
		}
	}
	if len(rest) != 0 {
		return Op{}, 0, fmt.Errorf("%w: %d trailing payload bytes", ErrCorruptRecord, len(rest))
	}
	return op, seq, nil
}

// appendSegmentHeader appends a segment header for a segment whose first
// record has sequence number start+1.
func appendSegmentHeader(buf []byte, start uint64) []byte {
	buf = append(buf, segMagic...)
	body := binary.AppendUvarint(nil, start)
	buf = append(buf, body...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, castagnoli))
}

// decodeSegmentHeader reads a segment header, returning the start
// sequence and the header length.
func decodeSegmentHeader(data []byte) (uint64, int, error) {
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return 0, 0, ErrBadSegment
	}
	rest := data[len(segMagic):]
	start, n := binary.Uvarint(rest)
	if n <= 0 || len(rest) < n+4 {
		return 0, 0, ErrBadSegment
	}
	if crc32.Checksum(rest[:n], castagnoli) != binary.LittleEndian.Uint32(rest[n:]) {
		return 0, 0, fmt.Errorf("%w: checksum mismatch", ErrBadSegment)
	}
	return start, len(segMagic) + n + 4, nil
}

// frameSnapshot encodes a snapshot covering the first ops log
// operations whose rows appendRows appends in the stable encoding. The
// body is appended once, behind room for the longest magic-and-length
// prefix, and the prefix is then written right in front of it, so the
// body is never copied.
func frameSnapshot(ops uint64, appendRows func(dst []byte) ([]byte, error)) ([]byte, error) {
	const room = len(snapMagic) + binary.MaxVarintLen64
	buf, err := appendRows(binary.AppendUvarint(make([]byte, room), ops))
	if err != nil {
		return nil, err
	}
	body := buf[room:]
	var hdr [room]byte
	prefix := binary.AppendUvarint(append(hdr[:0], snapMagic...), uint64(len(body)))
	start := room - len(prefix)
	copy(buf[start:], prefix)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, castagnoli))[start:], nil
}

// decodeSnapshot decodes a snapshot file into its rows and the op offset
// it covers. Any damage — truncation, checksum mismatch, malformed
// encoding — is ErrBadSnapshot; recovery then falls back to an older
// snapshot or a full replay.
func decodeSnapshot(data []byte) ([]transactions.Itemset, uint64, error) {
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != snapMagic {
		return nil, 0, ErrBadSnapshot
	}
	rest := data[len(snapMagic):]
	length, n := binary.Uvarint(rest)
	if n <= 0 || length > maxSnapshotSize {
		return nil, 0, fmt.Errorf("%w: body length", ErrBadSnapshot)
	}
	if uint64(len(rest)) < uint64(n)+length+4 {
		return nil, 0, fmt.Errorf("%w: truncated body", ErrBadSnapshot)
	}
	body := rest[n : uint64(n)+length]
	want := binary.LittleEndian.Uint32(rest[uint64(n)+length:])
	if crc32.Checksum(body, castagnoli) != want {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrBadSnapshot)
	}
	ops, n := binary.Uvarint(body)
	if n <= 0 {
		return nil, 0, fmt.Errorf("%w: op offset", ErrBadSnapshot)
	}
	txs, _, err := transactions.DecodeStableBytes(body[n:])
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return txs, ops, nil
}
