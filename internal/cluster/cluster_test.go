package cluster

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/synth"
)

// wellSeparated returns an easy 3-cluster 2-D dataset with ground truth.
func wellSeparated(t *testing.T, n int) *synth.Points {
	t.Helper()
	p, err := synth.GaussianMixture(synth.GaussianConfig{
		NumPoints: n, NumCluster: 3, Dims: 2, Spread: 0.5, Separation: 60, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDistances(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{3, 4}
	if got := Euclidean(a, b); got != 5 {
		t.Errorf("Euclidean = %v", got)
	}
	if got := SquaredEuclidean(a, b); got != 25 {
		t.Errorf("SquaredEuclidean = %v", got)
	}
}

func TestValidateErrors(t *testing.T) {
	if _, err := (&KMeans{K: 2}).Run(nil); !errors.Is(err, ErrNoPoints) {
		t.Errorf("empty error = %v", err)
	}
	ragged := [][]float64{{1, 2}, {1}}
	if _, err := (&KMeans{K: 1}).Run(ragged); !errors.Is(err, ErrDims) {
		t.Errorf("ragged error = %v", err)
	}
	pts := [][]float64{{1}, {2}}
	if _, err := (&KMeans{K: 0}).Run(pts); !errors.Is(err, ErrBadK) {
		t.Errorf("k=0 error = %v", err)
	}
	if _, err := (&KMeans{K: 3}).Run(pts); !errors.Is(err, ErrBadK) {
		t.Errorf("k>n error = %v", err)
	}
}

func TestKMeansRecoversSeparatedClusters(t *testing.T) {
	p := wellSeparated(t, 300)
	for _, seeding := range []Seeding{SeedForgy, SeedRandomPartition} {
		km := &KMeans{K: 3, Seed: 11, Seeding: seeding}
		res, err := km.Run(p.X)
		if err != nil {
			t.Fatal(err)
		}
		ri, err := RandIndex(res.Assignments, p.Labels)
		if err != nil {
			t.Fatal(err)
		}
		// Random-partition seeding starts all means near the global
		// centroid and is prone to local minima (the EXP ablation
		// quantifies this); only Forgy gets the strict bar.
		bar := 0.95
		if seeding == SeedRandomPartition {
			bar = 0.70
		}
		if ri < bar {
			t.Errorf("seeding %d: Rand index = %v, want > %v", seeding, ri, bar)
		}
	}
}

// SSE computes the sum of squared distances of each point to its assigned
// center, skipping noise points: the reference k-means' Cost must equal.
func SSE(points [][]float64, assignments []int, centers [][]float64) float64 {
	total := 0.0
	for i, p := range points {
		a := assignments[i]
		if a == Noise || a >= len(centers) {
			continue
		}
		total += SquaredEuclidean(p, centers[a])
	}
	return total
}

func TestKMeansCostMatchesSSE(t *testing.T) {
	p := wellSeparated(t, 150)
	res, err := (&KMeans{K: 3, Seed: 3}).Run(p.X)
	if err != nil {
		t.Fatal(err)
	}
	if got := SSE(p.X, res.Assignments, res.Centers); math.Abs(got-res.Cost) > 1e-9 {
		t.Errorf("Cost = %v, SSE = %v", res.Cost, got)
	}
}

func TestKMeansDeterministic(t *testing.T) {
	p := wellSeparated(t, 100)
	a, _ := (&KMeans{K: 3, Seed: 5}).Run(p.X)
	b, _ := (&KMeans{K: 3, Seed: 5}).Run(p.X)
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatal("same seed produced different assignments")
		}
	}
}

func TestKMeansK1(t *testing.T) {
	pts := [][]float64{{0, 0}, {2, 0}, {4, 0}}
	res, err := (&KMeans{K: 1, Seed: 1}).Run(pts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Centers[0][0] != 2 || res.Centers[0][1] != 0 {
		t.Errorf("center = %v, want (2,0)", res.Centers[0])
	}
}

// Property: the k-means cost never increases across Lloyd iterations —
// checked indirectly: final cost <= cost of the initial Forgy assignment.
func TestKMeansImprovesOverInit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		pts := make([][]float64, 60)
		for i := range pts {
			pts[i] = []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10}
		}
		km := &KMeans{K: 4, Seed: seed}
		res, err := km.Run(pts)
		if err != nil {
			return false
		}
		// Recompute: assigning points to final centers must give the
		// reported cost (internal consistency).
		asg := make([]int, len(pts))
		c := assignToNearest(pts, res.Centers, asg)
		return math.Abs(c-res.Cost) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPAMRecoversClusters(t *testing.T) {
	p := wellSeparated(t, 120)
	res, err := (&PAM{K: 3}).Run(p.X)
	if err != nil {
		t.Fatal(err)
	}
	ri, _ := RandIndex(res.Assignments, p.Labels)
	if ri < 0.95 {
		t.Errorf("PAM Rand index = %v", ri)
	}
	if len(res.Medoids) != 3 {
		t.Errorf("medoids = %v", res.Medoids)
	}
	if got := MedoidCost(p.X, res.Medoids); math.Abs(got-res.Cost) > 1e-9 {
		t.Errorf("Cost = %v, MedoidCost = %v", res.Cost, got)
	}
}

func TestPAMSwapImprovesOnBuild(t *testing.T) {
	p := wellSeparated(t, 90)
	build := pamBuild(p.X, 3)
	buildCost := MedoidCost(p.X, build)
	res, err := (&PAM{K: 3}).Run(p.X)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > buildCost+1e-9 {
		t.Errorf("swap cost %v worse than build cost %v", res.Cost, buildCost)
	}
}

func TestCLARAApproximatesPAM(t *testing.T) {
	p := wellSeparated(t, 200)
	pam, err := (&PAM{K: 3}).Run(p.X)
	if err != nil {
		t.Fatal(err)
	}
	clara, err := (&CLARA{K: 3, Seed: 13}).Run(p.X)
	if err != nil {
		t.Fatal(err)
	}
	if clara.Cost > pam.Cost*1.15 {
		t.Errorf("CLARA cost %v not within 15%% of PAM cost %v", clara.Cost, pam.Cost)
	}
}

func TestCLARANSApproximatesPAM(t *testing.T) {
	p := wellSeparated(t, 200)
	pam, err := (&PAM{K: 3}).Run(p.X)
	if err != nil {
		t.Fatal(err)
	}
	clarans, err := (&CLARANS{K: 3, Seed: 17}).Run(p.X)
	if err != nil {
		t.Fatal(err)
	}
	// The VLDB'94 claim: CLARANS cost within a few percent of PAM's.
	if clarans.Cost > pam.Cost*1.10 {
		t.Errorf("CLARANS cost %v not within 10%% of PAM cost %v", clarans.Cost, pam.Cost)
	}
}

func TestMedoidFamilyValidation(t *testing.T) {
	pts := [][]float64{{1}, {2}}
	for _, run := range []func() (*Result, error){
		func() (*Result, error) { return (&PAM{K: 5}).Run(pts) },
		func() (*Result, error) { return (&CLARA{K: 5}).Run(pts) },
		func() (*Result, error) { return (&CLARANS{K: 5}).Run(pts) },
	} {
		if _, err := run(); !errors.Is(err, ErrBadK) {
			t.Errorf("k>n error = %v", err)
		}
	}
}

func TestHierarchicalLinkages(t *testing.T) {
	p := wellSeparated(t, 90)
	for _, l := range []Linkage{SingleLinkage, CompleteLinkage, AverageLinkage, WardLinkage} {
		h := &Hierarchical{Linkage: l}
		dend, err := h.Run(p.X)
		if err != nil {
			t.Fatalf("%v: %v", l, err)
		}
		if len(dend.Merges) != len(p.X)-1 {
			t.Fatalf("%v: merges = %d", l, len(dend.Merges))
		}
		labels, err := dend.CutK(3)
		if err != nil {
			t.Fatal(err)
		}
		ri, _ := RandIndex(labels, p.Labels)
		if ri < 0.95 {
			t.Errorf("%v: Rand index = %v", l, ri)
		}
	}
}

func TestSingleLinkageChains(t *testing.T) {
	// Single linkage follows chains: two elongated parallel strips should
	// be recovered by single but broken by complete linkage.
	var pts [][]float64
	var truth []int
	for i := 0; i < 30; i++ {
		pts = append(pts, []float64{float64(i), 0})
		truth = append(truth, 0)
		pts = append(pts, []float64{float64(i), 10})
		truth = append(truth, 1)
	}
	single := &Hierarchical{Linkage: SingleLinkage}
	dend, err := single.Run(pts)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := dend.CutK(2)
	if err != nil {
		t.Fatal(err)
	}
	ri, _ := RandIndex(labels, truth)
	if ri != 1 {
		t.Errorf("single linkage Rand index = %v, want 1", ri)
	}
}

func TestCutKBounds(t *testing.T) {
	p := wellSeparated(t, 30)
	dend, err := (&Hierarchical{}).Run(p.X)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dend.CutK(0); !errors.Is(err, ErrBadK) {
		t.Errorf("CutK(0) error = %v", err)
	}
	if _, err := dend.CutK(31); !errors.Is(err, ErrBadK) {
		t.Errorf("CutK(n+1) error = %v", err)
	}
	labels, err := dend.CutK(30)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, l := range labels {
		seen[l] = true
	}
	if len(seen) != 30 {
		t.Errorf("CutK(n) clusters = %d", len(seen))
	}
	labels, err = dend.CutK(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range labels {
		if l != 0 {
			t.Fatal("CutK(1) must put everything in one cluster")
		}
	}
}

func TestDBSCANOnRings(t *testing.T) {
	p, err := synth.Shapes(synth.ShapeConfig{Kind: synth.Rings, NumPoints: 400, Jitter: 0.03, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	for _, useIndex := range []bool{false, true} {
		db := &DBSCAN{Eps: 0.5, MinPts: 4, UseIndex: useIndex}
		res, err := db.Run(p.X)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.NumClusters(); got != 2 {
			t.Errorf("useIndex=%v: clusters = %d, want 2", useIndex, got)
		}
		ri, _ := RandIndex(res.Assignments, p.Labels)
		if ri < 0.98 {
			t.Errorf("useIndex=%v: Rand index = %v", useIndex, ri)
		}
	}
}

func TestDBSCANBeatsKMeansOnRings(t *testing.T) {
	// The KDD'96 motivation: k-means cannot separate concentric rings.
	p, err := synth.Shapes(synth.ShapeConfig{Kind: synth.Rings, NumPoints: 300, Jitter: 0.03, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	km, err := (&KMeans{K: 2, Seed: 1}).Run(p.X)
	if err != nil {
		t.Fatal(err)
	}
	db, err := (&DBSCAN{Eps: 0.5, MinPts: 4}).Run(p.X)
	if err != nil {
		t.Fatal(err)
	}
	kmRI, _ := RandIndex(km.Assignments, p.Labels)
	dbRI, _ := RandIndex(db.Assignments, p.Labels)
	if dbRI <= kmRI {
		t.Errorf("DBSCAN RI %v <= k-means RI %v", dbRI, kmRI)
	}
}

func TestDBSCANNoiseDetection(t *testing.T) {
	p, err := synth.Shapes(synth.ShapeConfig{
		Kind: synth.Rings, NumPoints: 400, Jitter: 0.02, NoiseFrac: 0.08, Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&DBSCAN{Eps: 0.4, MinPts: 4}).Run(p.X)
	if err != nil {
		t.Fatal(err)
	}
	noiseFound := 0
	for _, a := range res.Assignments {
		if a == Noise {
			noiseFound++
		}
	}
	if noiseFound == 0 {
		t.Error("no noise detected despite background noise")
	}
}

func TestDBSCANIndexMatchesBrute(t *testing.T) {
	p := wellSeparated(t, 200)
	brute, err := (&DBSCAN{Eps: 2, MinPts: 4}).Run(p.X)
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := (&DBSCAN{Eps: 2, MinPts: 4, UseIndex: true}).Run(p.X)
	if err != nil {
		t.Fatal(err)
	}
	// Cluster ids may differ; compare via Rand index == 1 and same noise.
	ri, _ := RandIndex(brute.Assignments, indexed.Assignments)
	if ri != 1 {
		t.Errorf("indexed vs brute Rand index = %v", ri)
	}
	for i := range brute.Assignments {
		if (brute.Assignments[i] == Noise) != (indexed.Assignments[i] == Noise) {
			t.Fatalf("noise disagreement at %d", i)
		}
	}
}

func TestDBSCANValidation(t *testing.T) {
	pts := [][]float64{{1, 2}}
	if _, err := (&DBSCAN{Eps: 0, MinPts: 3}).Run(pts); !errors.Is(err, ErrBadParams) {
		t.Errorf("eps=0 error = %v", err)
	}
	if _, err := (&DBSCAN{Eps: 1, MinPts: 0}).Run(pts); !errors.Is(err, ErrBadParams) {
		t.Errorf("minPts=0 error = %v", err)
	}
}

func TestBIRCHRecoversGrid(t *testing.T) {
	p, err := synth.GaussianGrid(synth.GridConfig{
		NumPoints: 1000, GridSide: 2, CentreDist: 30, Spread: 1, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&BIRCH{K: 4, Seed: 1}).Run(p.X)
	if err != nil {
		t.Fatal(err)
	}
	ri, _ := RandIndex(res.Assignments, p.Labels)
	if ri < 0.95 {
		t.Errorf("BIRCH Rand index = %v", ri)
	}
	if res.NumClusters() != 4 {
		t.Errorf("clusters = %d", res.NumClusters())
	}
}

func TestBIRCHQualityNearKMeans(t *testing.T) {
	p := wellSeparated(t, 600)
	km, err := (&KMeans{K: 3, Seed: 2}).Run(p.X)
	if err != nil {
		t.Fatal(err)
	}
	birch, err := (&BIRCH{K: 3, Seed: 2}).Run(p.X)
	if err != nil {
		t.Fatal(err)
	}
	if birch.Cost > km.Cost*1.5 {
		t.Errorf("BIRCH SSE %v much worse than k-means %v", birch.Cost, km.Cost)
	}
}

func TestBIRCHCompressesLeaves(t *testing.T) {
	p := wellSeparated(t, 2000)
	b := &BIRCH{K: 3, MaxLeaves: 64, Seed: 3}
	res, err := b.Run(p.X)
	if err != nil {
		t.Fatal(err)
	}
	ri, _ := RandIndex(res.Assignments, p.Labels)
	if ri < 0.9 {
		t.Errorf("compressed BIRCH Rand index = %v", ri)
	}
}

func TestCFInvariants(t *testing.T) {
	c := newCF(2)
	pts := [][]float64{{1, 2}, {3, 4}, {5, 0}}
	for _, p := range pts {
		c.addPoint(p)
	}
	if c.n != 3 {
		t.Errorf("n = %v", c.n)
	}
	cent := c.centroid(make([]float64, 2))
	if cent[0] != 3 || cent[1] != 2 {
		t.Errorf("centroid = %v", cent)
	}
	// radius² = SS/N - ||mean||² = (1+4+9+16+25)/3 - 13 = 55/3 - 13.
	want := math.Sqrt(55.0/3.0 - 13.0)
	if math.Abs(c.radius()-want) > 1e-12 {
		t.Errorf("radius = %v, want %v", c.radius(), want)
	}
	// Merge equals adding all points to one CF.
	a, b := newCF(2), newCF(2)
	a.addPoint(pts[0])
	b.addPoint(pts[1])
	b.addPoint(pts[2])
	a.merge(b)
	if a.n != c.n || a.ss != c.ss || a.ls[0] != c.ls[0] || a.ls[1] != c.ls[1] {
		t.Error("merge != bulk add")
	}
}

func TestRandIndex(t *testing.T) {
	a := []int{0, 0, 1, 1}
	if ri, err := RandIndex(a, a); err != nil || ri != 1 {
		t.Errorf("identical = %v, %v", ri, err)
	}
	b := []int{1, 1, 0, 0}
	if ri, _ := RandIndex(a, b); ri != 1 {
		t.Errorf("relabelled = %v, want 1", ri)
	}
	c := []int{0, 1, 0, 1}
	ri, _ := RandIndex(a, c)
	// Pairs: (01)(23) same in a; in c (02)(13) same. All 6 pairs:
	// a: same {01,23}; c: same {02,13}; agreements: pairs different in
	// both: {03,12} => 2 agreements of 6.
	if math.Abs(ri-2.0/6.0) > 1e-12 {
		t.Errorf("ri = %v, want 1/3", ri)
	}
	if _, err := RandIndex([]int{1}, []int{1, 2}); !errors.Is(err, ErrLabelLength) {
		t.Errorf("length error = %v", err)
	}
}

func TestLinkageString(t *testing.T) {
	if SingleLinkage.String() != "single" || WardLinkage.String() != "ward" {
		t.Error("linkage names wrong")
	}
	if Linkage(42).String() != "Linkage(42)" {
		t.Error("unknown linkage name wrong")
	}
}
