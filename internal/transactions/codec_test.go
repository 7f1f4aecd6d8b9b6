package transactions

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestStableCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		db := NewDB()
		n := rng.Intn(30)
		for i := 0; i < n; i++ {
			row := make([]int, rng.Intn(8))
			for j := range row {
				row[j] = rng.Intn(500)
			}
			if err := db.Add(row...); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := EncodeStable(&buf, db.Transactions); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeStable(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != db.Len() {
			t.Fatalf("trial %d: got %d tx, want %d", trial, len(got), db.Len())
		}
		for i := range db.Transactions {
			if !got[i].Equal(db.Transactions[i]) {
				t.Fatalf("trial %d: transaction %d mismatch: %v vs %v",
					trial, i, got[i], db.Transactions[i])
			}
		}
	}
}

// TestStableCodecGolden pins the wire format: these exact bytes must
// decode forever, or old snapshots become unreadable.
func TestStableCodecGolden(t *testing.T) {
	db := NewDB()
	for _, row := range [][]int{{3, 1, 2}, {}, {7}, {0, 128, 4}} {
		if err := db.Add(row...); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := EncodeStable(&buf, db.Transactions); err != nil {
		t.Fatal(err)
	}
	const want = "0104030101010001070300047c"
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Fatalf("stable encoding changed:\n got %s\nwant %s", got, want)
	}
	dec, err := DecodeStable(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 4 || !dec[3].Equal(NewItemset(0, 4, 128)) {
		t.Fatalf("golden decode: %v", dec)
	}
}

func TestStableCodecErrors(t *testing.T) {
	db := NewDB()
	if err := db.Add(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeStable(&buf, db.Transactions); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	t.Run("truncated", func(t *testing.T) {
		for n := 0; n < len(valid); n++ {
			if _, err := DecodeStable(bytes.NewReader(valid[:n])); !errors.Is(err, ErrBadEncoding) {
				t.Fatalf("prefix %d: got %v, want ErrBadEncoding", n, err)
			}
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte{0x7f}, valid[1:]...)
		if _, err := DecodeStable(bytes.NewReader(bad)); !errors.Is(err, ErrBadEncoding) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("zero delta", func(t *testing.T) {
		// version, 1 tx, 2 items, first 5, delta 0 (duplicate).
		bad := []byte{stableFormatV1, 0x01, 0x02, 0x05, 0x00}
		if _, err := DecodeStable(bytes.NewReader(bad)); !errors.Is(err, ErrBadEncoding) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("huge count", func(t *testing.T) {
		// 1 tx claiming 2^40 items.
		var bad bytes.Buffer
		bad.WriteByte(stableFormatV1)
		bad.WriteByte(0x01)
		bad.Write([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
		if _, err := DecodeStable(bytes.NewReader(bad.Bytes())); !errors.Is(err, ErrBadEncoding) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("non-normalized encode", func(t *testing.T) {
		if err := EncodeStable(&bytes.Buffer{}, []Itemset{{3, 1}}); !errors.Is(err, ErrBadEncoding) {
			t.Fatalf("got %v", err)
		}
	})
}

// randomRows returns n sorted duplicate-free rows over items below top,
// some of them empty.
func randomRows(rng *rand.Rand, n, top int) []Itemset {
	rows := make([]Itemset, n)
	for i := range rows {
		row := make([]int, rng.Intn(8))
		for j := range row {
			row[j] = rng.Intn(top)
		}
		rows[i] = NewItemset(row...)
	}
	return rows
}

// TestAppendStableMatchesEncodeStable pins the byte-slice core to the
// writer API: the same rows give the same bytes through both, on the
// golden rows and on random ones, and appending leaves dst's prefix alone.
func TestAppendStableMatchesEncodeStable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := [][]Itemset{
		nil,
		{},
		{{}},
		{NewItemset(3, 1, 2), {}, NewItemset(7), NewItemset(0, 128, 4)},
		{{0, math.MaxInt}, {math.MaxInt}, {1<<31 - 2, 1<<31 - 1}},
	}
	for i := 0; i < 40; i++ {
		cases = append(cases, randomRows(rng, rng.Intn(30), 500))
	}
	for i, rows := range cases {
		var buf bytes.Buffer
		if err := EncodeStable(&buf, rows); err != nil {
			t.Fatalf("case %d: EncodeStable: %v", i, err)
		}
		got, err := AppendStable([]byte("prefix"), rows)
		if err != nil {
			t.Fatalf("case %d: AppendStable: %v", i, err)
		}
		if !bytes.Equal(got, append([]byte("prefix"), buf.Bytes()...)) {
			t.Fatalf("case %d: AppendStable bytes differ from EncodeStable's:\n got %x\nwant prefix+%x", i, got, buf.Bytes())
		}
	}
	golden, _ := AppendStable(nil, cases[3])
	if got := hex.EncodeToString(golden); got != "0104030101010001070300047c" {
		t.Fatalf("AppendStable golden bytes = %s", got)
	}
}

// TestDecodeStableBytes covers what the byte-slice decoder adds to the
// reader API: the bytes after the block come back, rows cannot be appended
// into their neighbours, and the encoding is canonical.
func TestDecodeStableBytes(t *testing.T) {
	rows := []Itemset{NewItemset(3, 1, 2), {}, NewItemset(7), {0, math.MaxInt}}
	enc, err := AppendStable(nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	got, rest, err := DecodeStableBytes(append(enc, 0xaa, 0xbb))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rest, []byte{0xaa, 0xbb}) {
		t.Errorf("rest = %x, want aabb", rest)
	}
	if len(got) != len(rows) {
		t.Fatalf("decoded %d rows, want %d", len(got), len(rows))
	}
	for i := range rows {
		if !got[i].Equal(rows[i]) {
			t.Errorf("row %d = %v, want %v", i, got[i], rows[i])
		}
		if cap(got[i]) != len(got[i]) {
			t.Errorf("row %d has capacity %d over length %d: an append would write into the next row", i, cap(got[i]), len(got[i]))
		}
	}
	for name, bad := range map[string][]byte{
		"empty":                    {},
		"non-minimal count":        {stableFormatV1, 0x81, 0x00, 0x00},
		"non-minimal delta":        {stableFormatV1, 0x01, 0x01, 0x85, 0x00},
		"item wraps past int":      append([]byte{stableFormatV1, 0x01, 0x02, 0x05}, bytes.Repeat([]byte{0xff}, 9)...),
		"more rows than bytes":     {stableFormatV1, 0x05, 0x00},
		"row longer than the rest": {stableFormatV1, 0x02, 0x03, 0x01, 0x01},
	} {
		if _, _, err := DecodeStableBytes(bad); !errors.Is(err, ErrBadEncoding) {
			t.Errorf("%s: got %v, want ErrBadEncoding", name, err)
		}
	}
}

// FuzzDecodeStableBytes holds the decoder to totality on arbitrary bytes:
// no panic, nothing allocated beyond a small multiple of the input, and a
// block that decodes re-encodes to exactly the bytes it was read from.
func FuzzDecodeStableBytes(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	for _, rows := range [][]Itemset{nil, {{}}, randomRows(rng, 6, 300), {{0, math.MaxInt}}} {
		enc, err := AppendStable(nil, rows)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		f.Add(append(enc, 0x01))
	}
	f.Add([]byte{stableFormatV1, 0x01, 0xff, 0xff, 0xff, 0xff, 0x0f}) // item-count bomb
	f.Add([]byte{stableFormatV1, 0xff, 0xff, 0xff, 0xff, 0x0f})       // row-count bomb
	f.Fuzz(func(t *testing.T, data []byte) {
		txs, rest, err := DecodeStableBytes(data)
		if err != nil {
			if !errors.Is(err, ErrBadEncoding) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		// The decoder's budget is a 24-byte header per declared row and an
		// 8-byte slot per input byte; what it handed back must fit it.
		held := 24 * cap(txs)
		for _, tx := range txs {
			held += 8 * cap(tx)
		}
		if held > 32*len(data) {
			t.Fatalf("decoded %d bytes into %d", len(data), held)
		}
		re, err := AppendStable(nil, txs)
		if err != nil {
			t.Fatalf("re-encode of a decoded block: %v", err)
		}
		if !bytes.Equal(re, data[:len(data)-len(rest)]) {
			t.Fatalf("re-encode differs:\n got %x\nwant %x", re, data[:len(data)-len(rest)])
		}
	})
}
