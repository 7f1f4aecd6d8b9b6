package experiments

import (
	"fmt"
	"io"

	"repro/internal/assoc"
	"repro/internal/assoc/reference"
	"repro/internal/seqmine"
	"repro/internal/synth"
)

// countingNote heads the timing tables of the Apriori family: their
// candidate passes (k >= 3, and every pass AprioriHybrid's Apriori phase
// counts) run the production kernel, which lays rows out as tid-bitsets
// in blocks of 4096 and ANDs them per candidate, instead of walking the
// VLDB'94 candidate hash tree — so Apriori's curve sits lower against AIS,
// SETM and AprioriTid than in the paper's figures.
const countingNote = "(Apriori passes count candidates in tid-bitset blocks, not the VLDB'94 hash tree)"

// RunA1 reproduces the execution-time-vs-support figure (VLDB'94 Fig. 4)
// on the three classic workloads. The Apriori passes count in tid-bitset
// blocks, not with the paper's hash tree (countingNote).
func RunA1(w io.Writer, s Scale) error {
	header(w, "A1", "execution time (ms) vs minimum support")
	fmt.Fprintln(w, countingNote)
	miners := []assoc.Miner{&reference.SETM{}, &reference.AIS{}, &reference.AprioriTid{}, &assoc.Apriori{}, &reference.AprioriHybrid{}}
	d := 2000
	supports := []float64{0.02, 0.01, 0.0075, 0.005}
	if s == Full {
		d = 10000
		supports = []float64{0.02, 0.015, 0.01, 0.0075, 0.005, 0.0033}
	}
	datasets := []struct {
		name string
		t, i float64
	}{
		{"T5.I2", 5, 2},
		{"T10.I4", 10, 4},
		{"T20.I6", 20, 6},
	}
	for _, ds := range datasets {
		db, err := synth.Baskets(synth.TxI(ds.t, ds.i, d, 94))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n%s.D%d\n", ds.name, d)
		fmt.Fprintf(w, "%-8s", "minsup")
		for _, m := range miners {
			fmt.Fprintf(w, "%14s", m.Name())
		}
		fmt.Fprintln(w)
		for _, sup := range supports {
			fmt.Fprintf(w, "%-8.2f", sup*100)
			for _, m := range miners {
				dur, err := timeIt(func() error {
					_, e := m.Mine(db, sup)
					return e
				})
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%14s", ms(dur))
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// RunA2 prints the per-pass candidate/frequent counts for Apriori and the
// on-the-fly candidate counts of AIS/SETM on the same workload.
func RunA2(w io.Writer, s Scale) error {
	header(w, "A2", "candidates and frequent itemsets per pass, T10.I4 at 0.75% support")
	d := 2000
	if s == Full {
		d = 10000
	}
	db, err := synth.Baskets(synth.TxI(10, 4, d, 94))
	if err != nil {
		return err
	}
	for _, m := range []assoc.Miner{&assoc.Apriori{}, &reference.AIS{}} {
		res, err := m.Mine(db, 0.0075)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n%s\n%-6s%12s%12s\n", m.Name(), "pass", "candidates", "frequent")
		for _, p := range res.Passes {
			fmt.Fprintf(w, "%-6d%12d%12d\n", p.K, p.Candidates, p.Frequent)
		}
	}
	return nil
}

// RunA3 reproduces the transactions scale-up figure, with the Apriori
// passes counted as countingNote says.
func RunA3(w io.Writer, s Scale) error {
	header(w, "A3", "execution time (ms) vs number of transactions, T10.I4 at 0.75% support")
	fmt.Fprintln(w, countingNote)
	sizes := []int{500, 1000, 2000, 4000}
	if s == Full {
		sizes = []int{2500, 5000, 10000, 25000, 50000}
	}
	miners := []assoc.Miner{&assoc.Apriori{}, &reference.AprioriTid{}, &reference.AprioriHybrid{}}
	fmt.Fprintf(w, "%-10s", "D")
	for _, m := range miners {
		fmt.Fprintf(w, "%14s", m.Name())
	}
	fmt.Fprintln(w)
	for _, d := range sizes {
		db, err := synth.Baskets(synth.TxI(10, 4, d, 94))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10d", d)
		for _, m := range miners {
			dur, err := timeIt(func() error {
				_, e := m.Mine(db, 0.0075)
				return e
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%14s", ms(dur))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// RunA4 reproduces the transaction-size scale-up: T grows while D*T (total
// item occurrences) stays constant; minimum support is an absolute count
// so the workload difficulty tracks only transaction size. The Apriori
// passes count as countingNote says.
func RunA4(w io.Writer, s Scale) error {
	header(w, "A4", "execution time (ms) vs average transaction size (fixed D*T)")
	fmt.Fprintln(w, countingNote)
	budget := 20000
	if s == Full {
		budget = 100000
	}
	miners := []assoc.Miner{&assoc.Apriori{}, &reference.AprioriTid{}, &reference.AprioriHybrid{}}
	fmt.Fprintf(w, "%-8s%-10s", "T", "D")
	for _, m := range miners {
		fmt.Fprintf(w, "%14s", m.Name())
	}
	fmt.Fprintln(w)
	for _, t := range []float64{5, 10, 20, 30} {
		d := int(float64(budget) / t)
		db, err := synth.Baskets(synth.TxI(t, 4, d, 94))
		if err != nil {
			return err
		}
		// Fixed absolute support of ~50 occurrences (scaled with budget).
		minSup := 50.0 / float64(d)
		if s == Full {
			minSup = 250.0 / float64(d)
		}
		fmt.Fprintf(w, "%-8.0f%-10d", t, d)
		for _, m := range miners {
			dur, err := timeIt(func() error {
				_, e := m.Mine(db, minSup)
				return e
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%14s", ms(dur))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// RunA5 measures the Partition algorithm against Apriori across partition
// counts and supports.
func RunA5(w io.Writer, s Scale) error {
	header(w, "A5", "Partition algorithm: execution time (ms) vs partitions")
	d := 2000
	supports := []float64{0.01, 0.0075, 0.005}
	if s == Full {
		d = 10000
		supports = []float64{0.01, 0.0075, 0.005, 0.0033}
	}
	db, err := synth.Baskets(synth.TxI(10, 4, d, 94))
	if err != nil {
		return err
	}
	parts := []int{1, 2, 4, 8}
	fmt.Fprintf(w, "%-8s%14s", "minsup", "Apriori")
	for _, p := range parts {
		fmt.Fprintf(w, "%14s", fmt.Sprintf("Part(%d)", p))
	}
	fmt.Fprintln(w)
	for _, sup := range supports {
		fmt.Fprintf(w, "%-8.2f", sup*100)
		dur, err := timeIt(func() error {
			_, e := (&assoc.Apriori{}).Mine(db, sup)
			return e
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%14s", ms(dur))
		for _, p := range parts {
			m := &reference.Partition{NumPartitions: p}
			dur, err := timeIt(func() error {
				_, e := m.Mine(db, sup)
				return e
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%14s", ms(dur))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// RunS1 reproduces the GSP vs AprioriAll comparison.
func RunS1(w io.Writer, s Scale) error {
	header(w, "S1", "sequential patterns: execution time (ms) vs minimum support")
	customers := 300
	supports := []float64{0.04, 0.03, 0.02}
	if s == Full {
		customers = 800
		supports = []float64{0.03, 0.02, 0.015, 0.01}
	}
	raw, err := synth.Sequences(synth.C10T2S4I1(customers, 96))
	if err != nil {
		return err
	}
	data := seqmine.FromSynth(raw)
	fmt.Fprintf(w, "%-8s%14s%14s%16s%16s\n", "minsup", "AprioriAll", "GSP", "AA candidates", "GSP candidates")
	for _, sup := range supports {
		row := fmt.Sprintf("%-8.2f", sup*100)
		var candAA, candGSP int
		aa := timeSeqMiner(data, sup, true, &candAA)
		gsp := timeSeqMiner(data, sup, false, &candGSP)
		row += fmt.Sprintf("%14s%14s%16d%16d", ms(aa), ms(gsp), candAA, candGSP)
		fmt.Fprintln(w, row)
	}
	return nil
}
