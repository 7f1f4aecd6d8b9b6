package synth

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"
)

// The digests below pin the generators' output across changes to how a
// draw is computed: a sampler that returns a different pattern for even one
// draw changes every later row. They are the sha256 of the rendered rows
// (WriteBasket's format for baskets; one customer per line, transactions
// separated by " ; ", for sequences) and must never be edited to make a
// change pass.

func dense(d int, seed int64) BasketConfig {
	c := T10I4(d, seed)
	c.NumItems = 120
	c.NumPatterns = 60
	return c
}

func TestBasketsGolden(t *testing.T) {
	cases := []struct {
		name   string
		config BasketConfig
		want   string
	}{
		{"T10I4(100000,1996)", T10I4(100000, 1996), "b6fac3fcd11df939111be21e486a850da00ccff6e7e69d282a4676814ceba8a7"},
		{"TxI(20,6,40000,5)", TxI(20, 6, 40000, 5), "2b782a6464d9c246ba9bcd1abcb532e8c08253b4bd94b75d1f545bd77597bcb3"},
		{"dense T10I4(20000,7) N=120 L=60", dense(20000, 7), "c02e764673b636312d77e62b27bc7fedcae4206fa692b68ea26d2fde72ef685b"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Baskets(tc.config)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := db.WriteBasket(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("sha256 = %s, want %s", got, tc.want)
			}
		})
	}
}

func TestSequencesGolden(t *testing.T) {
	seqs, err := Sequences(C10T2S4I1(20000, 1))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	writeSequences(h, seqs)
	const want = "ac3fdfe3a68c6f11a79421dd42de25a4d4691523b70ca195ecee3da547ed7fdd"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("sha256 = %s, want %s", got, want)
	}
}

func writeSequences(w io.Writer, seqs []Sequence) {
	for _, s := range seqs {
		for ti, tx := range s {
			if ti > 0 {
				fmt.Fprint(w, " ; ")
			}
			for ii, item := range tx {
				if ii > 0 {
					fmt.Fprint(w, " ")
				}
				fmt.Fprint(w, item)
			}
		}
		fmt.Fprintln(w)
	}
}
