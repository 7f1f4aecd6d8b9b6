package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("no samples must read 0")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1, 9}, 1, 9},
		{[]float64{10.5, 9.75, 10.25, 10, 11, 12, 9.5, 10.125}, 9.8125, 10.875},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// One slow phase of the host covers a minority of windows: the quiet
// quartile must not move, where a mean or a maximum would.
func TestQuietIgnoresSlowWindows(t *testing.T) {
	calm := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10, 10, 10.1}
	noisy := append([]float64(nil), calm...)
	noisy[3], noisy[4], noisy[5] = 13, 14, 13.5
	if a, b := quiet(calm, true), quiet(noisy, true); math.Abs(a-b)/a > 0.01 {
		t.Errorf("lower-is-better quartile moved from %v to %v under a slow phase", a, b)
	}
	rate := []float64{100, 101, 99, 100, 70, 72, 100, 101}
	if got := quiet(rate, false); got < 100 {
		t.Errorf("higher-is-better quartile = %v, want the fast side", got)
	}
	if got := spreadPct([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-100) > 1e-9 {
		t.Errorf("spreadPct = %v, want 100", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "bench.op", Start: 0, End: 100, Parent: -1},
		{Name: "a.call", Start: 10, End: 90, Parent: 0},
		{Name: "b.leaf", Start: 20, End: 50, Parent: 1}, // two workers called at once:
		{Name: "b.leaf", Start: 30, End: 60, Parent: 1}, // their union is 40 long
		{Name: "c.leaf", Start: 60, End: 95, Parent: 1}, // clipped to its parent at 90
		{Name: "probe", Start: 200, End: 260, Parent: -1},
	}
	self, root := selfTimes(spans, "bench.op")
	want := map[string]int64{"bench.op": 20, "a.call": 10, "b.leaf": 40, "c.leaf": 30}
	if root != 100 {
		t.Errorf("root total = %d, want 100", root)
	}
	var sum int64
	for name, ns := range want {
		if self[name] != ns {
			t.Errorf("self[%s] = %d, want %d", name, self[name], ns)
		}
		sum += self[name]
	}
	if sum != root {
		t.Errorf("self times sum to %d, op time is %d", sum, root)
	}
	if _, ok := self["probe"]; ok {
		t.Error("a root that is not an op must stay out of the self-time table")
	}
}

func TestTracerNesting(t *testing.T) {
	var none *tracer
	none.begin("x")
	none.leaf("y", none.clock())
	if none.end() != 0 {
		t.Error("a nil tracer must record nothing")
	}
	tr := newTracer()
	tr.setOp(7)
	tr.leaf("dropped", tr.clock()) // no op open: not recorded
	op := tr.begin("bench.op")
	call := tr.begin("a.call")
	tr.leaf("b.leaf", tr.clock())
	tr.rename(call, "a.renamed")
	tr.end()
	tr.end()
	if len(tr.spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(tr.spans))
	}
	if s := tr.spans[2]; s.Name != "b.leaf" || s.Parent != call || s.Op != 7 {
		t.Errorf("leaf span = %+v", s)
	}
	if s := tr.spans[1]; s.Name != "a.renamed" || s.Parent != op || s.End < s.Start {
		t.Errorf("call span = %+v", s)
	}
}
