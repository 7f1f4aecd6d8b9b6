package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer (or that one of
// its wrappers saw the program make): name "<layer>.<what>", start and
// end in nanoseconds since the tracer was created, the index of the span
// that caused it (-1 for a root) and the op it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

// tracer keeps spans in memory until the run ends. The harness goroutine
// opens and closes spans as a stack (begin/end); the wrappers, which run
// on the program's goroutines, attach leaf spans under whatever harness
// span is open at the time (leaf). A nil tracer records nothing, which is
// how the untraced run and untraced ops are expressed.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int32 // the harness goroutine's stack of open spans
	op    int32   // op id given to new spans
}

// newTracer starts an empty trace.
func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// setOp names the op that spans opened from now on belong to.
func (t *tracer) setOp(op int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op = int32(op)
	t.mu.Unlock()
}

// begin opens a span on the harness stack and returns its index.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: t.top(), Op: t.op, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	t.mu.Unlock()
	return id
}

// end closes the innermost open harness span and returns its duration.
func (t *tracer) end() time.Duration {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = now
	d := now - t.spans[id].Start
	t.mu.Unlock()
	return time.Duration(d)
}

// rename changes the name of an open or closed span; the write workload
// uses it once it knows whether a request waited on a maintain.
func (t *tracer) rename(id int32, name string) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Name = name
	t.mu.Unlock()
}

// top is the innermost open harness span, -1 when none. Callers hold mu.
func (t *tracer) top() int32 {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// clock is time.Now for a live tracer and free for a nil one, so the
// wrappers cost nothing measurable in the untraced run.
func (t *tracer) clock() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// leaf records a span that a wrapper saw start at start (from clock) and
// end now, on whatever goroutine the program made the call, under the
// harness span open when it ends. Work the program does while no traced
// op is open (between sampled ops) is not recorded.
func (t *tracer) leaf(name string, start time.Time) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	if parent := t.top(); parent >= 0 {
		t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op, Start: int64(start.Sub(t.t0)), End: int64(now.Sub(t.t0))})
	}
	t.mu.Unlock()
}

// layerOf is the part of a span name before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// interval is a half-open time range in trace nanoseconds.
type interval struct{ lo, hi int64 }

// unionLen is the total length covered by ivs (sorted in place).
func unionLen(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, hi int64
	hi = -1 << 62
	for _, iv := range ivs {
		if iv.lo > hi {
			total += iv.hi - iv.lo
			hi = iv.hi
		} else if iv.hi > hi {
			total += iv.hi - hi
			hi = iv.hi
		}
	}
	return total
}

// selfTimes returns, per span name, the summed self time in nanoseconds
// of the spans under roots named root: a span's duration minus the part of
// it its children cover. Children are clipped to their parent, and
// children of one parent that share a name and overlap (two workers called
// at once) count once, as the union of their intervals, so the self times
// of an op's spans add up to the op. The second result is the summed
// duration of the roots. Spans are in begin order, so a parent always
// precedes its children.
func selfTimes(spans []span, root string) (byName map[string]int64, rootTotal int64) {
	clip := make([]interval, len(spans))
	inTree := make([]bool, len(spans))
	kids := make(map[int32][]int32)
	byName = make(map[string]int64)
	for i, s := range spans {
		iv := interval{s.Start, s.End}
		if s.Parent < 0 {
			inTree[i] = s.Name == root
		} else {
			inTree[i] = inTree[s.Parent]
			p := clip[s.Parent]
			iv = interval{max(iv.lo, p.lo), min(iv.hi, p.hi)}
			if iv.hi < iv.lo {
				iv.hi = iv.lo
			}
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
		clip[i] = iv
		if !inTree[i] {
			continue
		}
		byName[s.Name] += iv.hi - iv.lo
		if s.Parent < 0 {
			rootTotal += iv.hi - iv.lo
		}
	}
	for p, ks := range kids {
		if !inTree[p] {
			continue
		}
		all := make([]interval, 0, len(ks))
		groups := make(map[string][]interval)
		for _, k := range ks {
			all = append(all, clip[k])
			groups[spans[k].Name] = append(groups[spans[k].Name], clip[k])
		}
		byName[spans[p].Name] -= unionLen(all)
		for name, ivs := range groups {
			var sum int64
			for _, iv := range ivs {
				sum += iv.hi - iv.lo
			}
			byName[name] -= sum - unionLen(ivs)
		}
	}
	return byName, rootTotal
}

// writeTrace writes the spans as one JSON document under bench/out.
func writeTrace(path string, workload string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// spanMetrics maps span names to the per-layer metrics read off them:
// the median duration of the spans of that name, or their summed self
// time per traced op.
var spanMetrics = []struct {
	span, metric string
	perOpSelf    bool
	unitNS       float64
}{
	{"mining.mine.s004", "mining.mine_ms.s004", false, 1e6},
	{"mining.mine.s002", "mining.mine_ms.s002", false, 1e6},
	{"mining.mine.s001", "mining.mine_ms.s001", false, 1e6},
	{"assoc.rules", "assoc.rules_ms", true, 1e6},
	{"dist.ship", "dist.ship_ms", true, 1e6},
	{"dist.count", "dist.count_ms", true, 1e6},
	{"assoc.distributed", "dist.coord_self_ms", true, 1e6},
	{"serve.parse", "serve.parse_us", false, 1e3},
	{"serve.query_hit", "serve.query_hit_us", false, 1e3},
	{"serve.query_miss", "serve.query_miss_us", false, 1e3},
	{"serve.support", "serve.support_us", false, 1e3},
}

// rootSpan is the name of the span that brackets one whole op.
const rootSpan = "bench.op"

// addSpanMetrics derives the span-based per-layer metrics and prints the
// per-layer self-time table of the traced ops to log.
func addSpanMetrics(log io.Writer, values map[string]float64, spans []span, tracedOps int) {
	values["bench.spans"] = float64(len(spans))
	if tracedOps == 0 {
		return
	}
	self, rootTotal := selfTimes(spans, rootSpan)
	durs := make(map[string][]float64)
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start))
	}
	for _, sm := range spanMetrics {
		if sm.perOpSelf {
			values[sm.metric] = float64(self[sm.span]) / float64(tracedOps) / sm.unitNS
		} else {
			values[sm.metric] = median(durs[sm.span]) / sm.unitNS
		}
	}
	byLayer := make(map[string]int64)
	var sum int64
	for name, ns := range self {
		byLayer[layerOf(name)] += ns
		sum += ns
	}
	if rootTotal > 0 {
		values["bench.span_coverage"] = float64(sum) / float64(rootTotal)
	}
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(log, "self time %-14s %10.3f ms/op  %5.1f %%\n", l,
			float64(byLayer[l])/float64(tracedOps)/1e6, 100*float64(byLayer[l])/float64(rootTotal))
	}
}
