// Command dmgen generates the synthetic benchmark workloads used by the
// reproduction: Quest-style market baskets, customer sequences,
// classification benchmark tables, and Gaussian cluster points.
//
// Usage:
//
//	dmgen -kind baskets  -n 10000 -t 10 -i 4 -seed 1 > baskets.txt
//	dmgen -kind classify -n 2000  -fn 5 -noise 0.1  > people.csv
//	dmgen -kind clusters -n 1000  -k 5              > points.csv
//	dmgen -kind sequences -n 1000                   > sequences.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/synth"
)

func main() {
	var (
		kind  = flag.String("kind", "baskets", "baskets | sequences | classify | clusters")
		n     = flag.Int("n", 1000, "rows / transactions / customers / points")
		t     = flag.Float64("t", 10, "baskets: average transaction size")
		i     = flag.Float64("i", 4, "baskets: average pattern size")
		fn    = flag.Int("fn", 1, "classify: benchmark function 1..10")
		noise = flag.Float64("noise", 0, "classify: label-noise probability")
		k     = flag.Int("k", 5, "clusters: number of clusters")
		dims  = flag.Int("dims", 2, "clusters: dimensionality")
		seed  = flag.Int64("seed", 1, "generator seed")
	)
	flag.Parse()
	if err := run(os.Stdout, *kind, *n, *t, *i, *fn, *noise, *k, *dims, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "dmgen:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, kind string, n int, t, i float64, fn int, noise float64, k, dims int, seed int64) (err error) {
	out := bufio.NewWriter(w)
	// bufio.Writer keeps its first write error, and Flush returns it, so
	// a failed write of any kind (a full disk) is reported here.
	defer func() {
		if ferr := out.Flush(); err == nil {
			err = ferr
		}
	}()
	switch kind {
	case "baskets":
		db, err := synth.Baskets(synth.TxI(t, i, n, seed))
		if err != nil {
			return err
		}
		return db.WriteBasket(out)
	case "sequences":
		seqs, err := synth.Sequences(synth.C10T2S4I1(n, seed))
		if err != nil {
			return err
		}
		// One customer per line; transactions separated by ';'.
		for _, s := range seqs {
			for ti, tx := range s {
				if ti > 0 {
					out.WriteString(" ; ")
				}
				for ii, item := range tx {
					if ii > 0 {
						out.WriteByte(' ')
					}
					out.Write(strconv.AppendInt(out.AvailableBuffer(), int64(item), 10))
				}
			}
			out.WriteByte('\n')
		}
		return nil
	case "classify":
		tbl, err := synth.Classify(synth.ClassifyConfig{NumRows: n, Function: fn, Noise: noise, Seed: seed})
		if err != nil {
			return err
		}
		return tbl.WriteCSV(out)
	case "clusters":
		p, err := synth.GaussianMixture(synth.GaussianConfig{
			NumPoints: n, NumCluster: k, Dims: dims, Spread: 1, Separation: 50, Seed: seed,
		})
		if err != nil {
			return err
		}
		for d := 0; d < dims; d++ {
			if d > 0 {
				fmt.Fprint(out, ",")
			}
			fmt.Fprintf(out, "x%d", d)
		}
		fmt.Fprintln(out, ",label")
		for idx, x := range p.X {
			for d, v := range x {
				if d > 0 {
					fmt.Fprint(out, ",")
				}
				fmt.Fprintf(out, "%g", v)
			}
			fmt.Fprintf(out, ",%d\n", p.Labels[idx])
		}
		return nil
	default:
		return fmt.Errorf("unknown kind %q", kind)
	}
}
