// Command dmine runs the library's mining algorithms on user data.
//
// Subcommands:
//
//	dmine assoc    -in baskets.txt -minsup 0.01 -minconf 0.5 [-algo Apriori]
//	               [-incremental -updates updates.txt -shardcap 1024 -verify]
//	               [-dist -distworkers 4 [-distfaults seed=1,err=0.1,kill=0.02]]
//	dmine seq      -in sequences.txt -minsup 0.02 [-algo GSP]
//	dmine cluster  -in points.csv -k 5 [-algo kmeans]
//	dmine classify -in people.csv -class group [-algo tree] [-folds 10]
//
// Input formats match cmd/dmgen's output: whitespace-separated item ids
// (one basket per line), ';'-separated transactions of item ids (one
// customer per line), and CSV with a header row.
//
// The assoc subcommand is a thin shell over the public mining package:
// flags map one-to-one onto mining options (-algo -> mining.Algorithm,
// -workers -> mining.Workers, -dist -> mining.Transport, -incremental ->
// mining.Session), so anything the CLI does a Go program can do through
// the same API. Invalid flags exit 2 with consistent error text across
// dmine and dmbench (internal/cliutil).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/quant"
	"repro/internal/seqmine"
	"repro/internal/transactions"
	"repro/mining"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "assoc":
		err = runAssoc(os.Args[2:])
	case "seq":
		err = runSeq(os.Args[2:])
	case "cluster":
		err = runCluster(os.Args[2:])
	case "classify":
		err = runClassify(os.Args[2:])
	case "quant":
		err = runQuant(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "dmine:", err)
	}
	os.Exit(cliutil.ExitCode(err))
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dmine <assoc|seq|cluster|classify|quant> [flags]")
}

// runQuant mines quantitative association rules from a CSV table.
func runQuant(args []string) error {
	fs := cliutil.NewFlagSet("quant")
	in := fs.String("in", "", "CSV with a header row")
	bins := fs.Int("bins", 4, "equi-depth intervals per numeric attribute")
	maxSup := fs.Float64("maxsup", 0.5, "maximum interval support")
	minsup := fs.Float64("minsup", 0.1, "minimum rule support")
	minconf := fs.Float64("minconf", 0.6, "minimum rule confidence")
	topN := fs.Int("top", 20, "rules to print")
	if err := cliutil.Parse(fs, args); err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	tbl, err := dataset.ReadCSV(f, "")
	if err != nil {
		return err
	}
	rules, codec, err := quant.Mine(tbl, quant.Config{Bins: *bins, MaxSupport: *maxSup}, *minsup, *minconf)
	if err != nil {
		return err
	}
	fmt.Printf("%d rows, %d encoded items, %d rules\n", tbl.NumRows(), len(codec.Items), len(rules))
	for i, r := range rules {
		if i >= *topN {
			break
		}
		fmt.Println(" ", r)
	}
	return nil
}

func runAssoc(args []string) error {
	fs := cliutil.NewFlagSet("assoc")
	in := fs.String("in", "", "basket file (one transaction per line)")
	sup := cliutil.AddSupportFlags(fs)
	algo := fs.String("algo", "Apriori", "mining engine, one of "+strings.Join(mining.Algorithms(), ", "))
	topN := fs.Int("top", 20, "rules to print")
	workers := cliutil.AddWorkersFlag(fs)
	inc := cliutil.AddIncrementalFlags(fs)
	dist := cliutil.AddDistFlags(fs,
		"mine through the distributed coordinator/worker backend (in-process transport; -algo selects Apriori or FPGrowth as the engine)")
	faultSpec := cliutil.AddFaultsFlag(fs)
	if err := cliutil.Parse(fs, args); err != nil {
		return err
	}
	faults, err := cliutil.ParseFaults(*faultSpec)
	if err != nil {
		return err
	}
	distOpts, err := dist.Options(faults)
	if err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	db, err := mining.ReadBasket(f)
	if err != nil {
		return err
	}
	opts := append([]mining.Option{
		mining.MinSupport(sup.MinSup),
		mining.Algorithm(*algo),
		mining.Workers(cliutil.ResolveWorkers(*workers)),
	}, distOpts...)
	// The banner follows the facade's validation of the options, so it
	// never names a combination mining rejects (-dist with Eclat is
	// ErrBadOption).
	announce := func() {}
	if dist.Dist {
		announce = func() {
			fmt.Printf("distributed: %s engine over %d in-process workers (wire-codec transport)\n", *algo, dist.EffectiveWorkers())
			if faults != nil {
				// Echo the resolved schedule so a run is reproducible from
				// its own output.
				plan, retry := faults.Faults, faults.Retry
				fmt.Printf("fault injection: seed=%d drop=%.3g err=%.3g kill=%.3g delay=%s delayprob=%.3g partition=%d timeout=%s attempts=%d backoff=%s\n",
					plan.Seed, plan.Drop, plan.Error, plan.Kill, plan.Delay,
					plan.DelayProb, plan.PartitionAfter, retry.CallTimeout, retry.MaxAttempts, retry.Backoff)
			}
		}
	}
	ctx := context.Background()
	var res *mining.Result
	if inc.Enabled {
		res, err = runAssocIncremental(ctx, db, opts, inc, announce)
	} else {
		res, err = mining.Mine(ctx, db, opts...)
		if err == nil {
			announce()
		}
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d transactions, %d frequent itemsets (max length %d)\n",
		*algo, res.NumTx(), res.NumFrequent(), res.MaxLen())
	for _, p := range res.Passes() {
		note := ""
		if p.Degraded {
			note = " (degraded: served by local fallback)"
		}
		fmt.Printf("  pass %d: %d candidates, %d frequent%s\n", p.K, p.Candidates, p.Frequent, note)
	}
	rules, err := res.Rules(sup.MinConf)
	if err != nil {
		return err
	}
	fmt.Printf("%d rules at confidence >= %.2f\n", len(rules), sup.MinConf)
	for i, r := range rules {
		if i >= *topN {
			break
		}
		fmt.Println(" ", r)
	}
	return nil
}

// runAssocIncremental mines db through a mining.Session: the transactions
// are bulk-loaded into the session's sharded store, an initial full mine
// counts the tracked candidate set, and the optional update script is
// replayed with a Maintain step at every '=' line (and a final one),
// counting only the transactions each step added or deleted unless the
// negative border is crossed.
// With -verify, every maintained result is checked byte-identical to a
// one-shot Mine over a store snapshot with the same options. announce runs
// once NewSession has accepted the options, before anything else prints.
func runAssocIncremental(ctx context.Context, db *mining.DB, opts []mining.Option, inc *cliutil.IncrementalFlags, announce func()) (*mining.Result, error) {
	s, err := mining.NewSession(db, append(opts, mining.ShardCap(inc.ShardCap))...)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	announce()
	res, stats, err := s.Maintain(ctx)
	if err != nil {
		return nil, err
	}
	fmt.Printf("incremental: attached %d transactions in %d shards\n", s.Len(), stats.NumShards)

	verifyNow := func(label string) error {
		if !inc.Verify {
			return nil
		}
		want, err := mining.Mine(ctx, s.Snapshot(), opts...)
		if err != nil {
			return err
		}
		if string(res.Canonical()) != string(want.Canonical()) {
			return fmt.Errorf("%s: maintained result differs from a from-scratch run", label)
		}
		fmt.Printf("  %s: verified byte-identical to a from-scratch run\n", label)
		return nil
	}
	if err := verifyNow("attach"); err != nil {
		return nil, err
	}

	step := 0
	maintain := func() error {
		step++
		res, stats, err = s.Maintain(ctx)
		if err != nil {
			return err
		}
		if stats.FullRun {
			fmt.Printf("  step %d: %d transactions, %d frequent; full re-mine (%s)\n",
				step, s.Len(), res.NumFrequent(), stats.Reason)
		} else {
			fmt.Printf("  step %d: %d transactions, %d frequent; counted a delta of %d transactions (%d/%d shards touched)\n",
				step, s.Len(), res.NumFrequent(), stats.RecountedTx, stats.DirtyShards, stats.NumShards)
		}
		return verifyNow(fmt.Sprintf("step %d", step))
	}

	if inc.Updates == "" {
		return res, nil
	}
	uf, err := os.Open(inc.Updates)
	if err != nil {
		return nil, err
	}
	defer uf.Close()
	sc := bufio.NewScanner(uf)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo, pending := 0, false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "+":
			items := make([]int, 0, len(fields)-1)
			for _, fstr := range fields[1:] {
				v, err := strconv.Atoi(fstr)
				if err != nil {
					return nil, fmt.Errorf("updates line %d: %w", lineNo, err)
				}
				items = append(items, v)
			}
			if err := s.Append(items...); err != nil {
				return nil, fmt.Errorf("updates line %d: %w", lineNo, err)
			}
			pending = true
		case "-":
			if len(fields) != 2 {
				return nil, fmt.Errorf("updates line %d: want '- tid'", lineNo)
			}
			tid, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("updates line %d: %w", lineNo, err)
			}
			if _, err := s.DeleteAt(tid); err != nil {
				return nil, fmt.Errorf("updates line %d: %w", lineNo, err)
			}
			pending = true
		case "=":
			if err := maintain(); err != nil {
				return nil, err
			}
			pending = false
		default:
			return nil, fmt.Errorf("updates line %d: unknown op %q (want +, - or =)", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if pending {
		if err := maintain(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func runSeq(args []string) error {
	fs := cliutil.NewFlagSet("seq")
	in := fs.String("in", "", "sequence file (transactions separated by ';')")
	minsup := fs.Float64("minsup", 0.02, "minimum relative support")
	algo := fs.String("algo", "GSP", "AprioriAll or GSP")
	topN := fs.Int("top", 20, "maximal sequences to print")
	if err := cliutil.Parse(fs, args); err != nil {
		return err
	}
	data, err := readSequences(*in)
	if err != nil {
		return err
	}
	var miner seqmine.Miner
	switch *algo {
	case "GSP":
		miner = &seqmine.GSP{}
	case "AprioriAll":
		miner = &seqmine.AprioriAll{}
	default:
		return fmt.Errorf("unknown sequence miner %q", *algo)
	}
	res, err := miner.Mine(data, *minsup)
	if err != nil {
		return err
	}
	maximal := res.Maximal()
	sort.Slice(maximal, func(i, j int) bool { return maximal[i].Count > maximal[j].Count })
	fmt.Printf("%s: %d customers, %d frequent sequences, %d maximal\n",
		miner.Name(), len(data), res.NumFrequent(), len(maximal))
	for i, sc := range maximal {
		if i >= *topN {
			break
		}
		fmt.Printf("  %s (support %d)\n", sc.Seq, sc.Count)
	}
	return nil
}

func readSequences(path string) ([]seqmine.Sequence, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []seqmine.Sequence
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var seq seqmine.Sequence
		for _, part := range strings.Split(line, ";") {
			fields := strings.Fields(part)
			if len(fields) == 0 {
				continue
			}
			items := make([]int, 0, len(fields))
			for _, fstr := range fields {
				v, err := strconv.Atoi(fstr)
				if err != nil {
					return nil, fmt.Errorf("parsing %q: %w", fstr, err)
				}
				items = append(items, v)
			}
			seq = append(seq, transactions.NewItemset(items...))
		}
		if len(seq) > 0 {
			out = append(out, seq)
		}
	}
	return out, sc.Err()
}

func runCluster(args []string) error {
	fs := cliutil.NewFlagSet("cluster")
	in := fs.String("in", "", "CSV of numeric columns (non-numeric columns ignored)")
	k := fs.Int("k", 5, "number of clusters (ignored by dbscan)")
	algo := fs.String("algo", "kmeans", "kmeans | pam | clara | clarans | dbscan | birch")
	eps := fs.Float64("eps", 1, "dbscan: neighbourhood radius")
	minPts := fs.Int("minpts", 5, "dbscan: core-point threshold")
	seed := fs.Int64("seed", 1, "seed for randomised algorithms")
	if err := cliutil.Parse(fs, args); err != nil {
		return err
	}
	pts, err := readPoints(*in)
	if err != nil {
		return err
	}
	var c core.Clusterer
	switch *algo {
	case "kmeans":
		c = &core.KMeansClusterer{KMeans: cluster.KMeans{K: *k, Seed: *seed}}
	case "pam":
		c = &core.PAMClusterer{PAM: cluster.PAM{K: *k}}
	case "clara":
		c = &core.CLARAClusterer{CLARA: cluster.CLARA{K: *k, Seed: *seed}}
	case "clarans":
		c = &core.CLARANSClusterer{CLARANS: cluster.CLARANS{K: *k, Seed: *seed}}
	case "dbscan":
		c = &core.DBSCANClusterer{DBSCAN: cluster.DBSCAN{Eps: *eps, MinPts: *minPts, UseIndex: true}}
	case "birch":
		c = &core.BIRCHClusterer{BIRCH: cluster.BIRCH{K: *k, Seed: *seed}}
	default:
		return fmt.Errorf("unknown clusterer %q", *algo)
	}
	res, err := c.Cluster(pts)
	if err != nil {
		return err
	}
	sizes := map[int]int{}
	noise := 0
	for _, a := range res.Assignments {
		if a == cluster.Noise {
			noise++
		} else {
			sizes[a]++
		}
	}
	fmt.Printf("%s: %d points, %d clusters, %d noise, cost %.2f\n",
		c.Name(), len(pts), res.NumClusters(), noise, res.Cost)
	ids := make([]int, 0, len(sizes))
	for id := range sizes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Printf("  cluster %d: %d points\n", id, sizes[id])
	}
	return nil
}

func readPoints(path string) ([][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tbl, err := dataset.ReadCSV(f, "")
	if err != nil {
		return nil, err
	}
	var numeric []int
	for j, a := range tbl.Attributes {
		if a.Kind == dataset.Numeric {
			numeric = append(numeric, j)
		}
	}
	if len(numeric) == 0 {
		return nil, fmt.Errorf("no numeric columns in %s", path)
	}
	pts := make([][]float64, tbl.NumRows())
	for i, row := range tbl.Rows {
		p := make([]float64, len(numeric))
		for d, j := range numeric {
			if dataset.IsMissing(row[j]) {
				return nil, fmt.Errorf("row %d: missing value in numeric column %q", i, tbl.Attributes[j].Name)
			}
			p[d] = row[j]
		}
		pts[i] = p
	}
	return pts, nil
}

func runClassify(args []string) error {
	fs := cliutil.NewFlagSet("classify")
	in := fs.String("in", "", "CSV with a header row")
	class := fs.String("class", "class", "class column name")
	algo := fs.String("algo", "", "classifier name (default: compare all)")
	folds := fs.Int("folds", 10, "cross-validation folds")
	seed := fs.Int64("seed", 1, "fold-assignment seed")
	if err := cliutil.Parse(fs, args); err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	tbl, err := dataset.ReadCSV(f, *class)
	if err != nil {
		return err
	}
	trainers := core.Classifiers()
	if *algo != "" {
		tr, err := core.ClassifierByName(*algo)
		if err != nil {
			return err
		}
		trainers = []core.ClassifierTrainer{tr}
	}
	if *algo != "" && len(trainers) == 1 {
		// Single classifier: print the full confusion matrix too.
		tr := trainers[0]
		res, err := eval.CrossValidate(tbl, *folds, *seed, func(train *dataset.Table) (eval.Classifier, error) {
			return tr.Train(train)
		})
		if err != nil {
			return err
		}
		fmt.Printf("%s: %d rows, %d-fold CV accuracy %.2f%%, macro-F1 %.3f\n",
			tr.Name(), tbl.NumRows(), *folds, res.Accuracy()*100, res.Matrix.MacroF1())
		fmt.Print(res.Matrix)
		return nil
	}
	comps, err := core.CompareClassifiers(tbl, trainers, *folds, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("%d rows, %d-fold cross-validation\n", tbl.NumRows(), *folds)
	fmt.Printf("%-16s%12s%12s\n", "classifier", "accuracy", "macro-F1")
	for _, c := range comps {
		fmt.Printf("%-16s%11.2f%%%12.3f\n", c.Name, c.Accuracy*100, c.MacroF1)
	}
	return nil
}
