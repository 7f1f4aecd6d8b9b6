package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// instance is one set-up workload, ready to run ops.
type instance interface {
	// reference computes what the ops are checked against. It is the
	// checker's work, not the program's, so it runs once, after the
	// set-ups, outside setup_s.
	reference() error
	// op runs op i and returns the length of its timed region and
	// whether its output was correct; everything op does outside that
	// region (drawing the input, checking the output) is the generator's
	// time. A non-nil tracer makes this op a traced one.
	op(i int, tr *tracer) (time.Duration, bool)
	// finish runs the end-of-run checks, adds the run's exact counts (and,
	// in a traced run, the layer probes) to values, and releases the
	// instance. It returns how many extra checks it made and how many of
	// them failed.
	finish(values map[string]float64, traced bool) (checks, failed int, err error)
	// close releases an instance that will not be measured.
	close()
}

// measured is what the window loop observed.
type measured struct {
	ops, failed int
	lat         []float64 // every op's timed region, ms
	tracedLat   []float64 // traced run: the traced ops' regions, ms
	plainLat    []float64 // traced run: the untraced ops' regions, ms
	winP50      []float64 // per window: median op, ms
	winRate     []float64 // per window: ops per second of timed region
	winCPU      []float64 // per window: user+sys CPU per op, ms
	allocKB     float64   // heap KB allocated per op over the phase
	heapLiveMB  float64   // largest live heap seen after a forced GC
	generatorUS float64   // harness time per op outside timed regions
	wallS       float64   // the whole measured phase
}

// cpuNow is the process's user+system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSamples reads the allocation and live-heap counters.
var heapSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/live:bytes"},
}

// heapNow returns total bytes allocated so far and the live heap found by
// the last GC cycle.
func heapNow() (allocs, live uint64) {
	metrics.Read(heapSamples)
	return heapSamples[0].Value.Uint64(), heapSamples[1].Value.Uint64()
}

// tracedEvery is the untraced share of a traced run: every fourth window
// runs with no tracer at all, so the run carries its own baseline for
// bench.trace_overhead_pct under the same host conditions.
const tracedEvery = 4

// measure runs the fixed work: windows of z.windowOps ops, a forced GC
// between windows (before every op when gcEveryOp: the mining ops are
// long enough that one op is a window of its own kind) and never inside a
// timed region. It stops early, at a window boundary, only once the phase
// has taken overrun times its nominal length, so a badly regressed build
// still reports instead of running into the driver's timeout.
func measure(inst instance, z sizing, windows int, gcEveryOp bool, tr *tracer, limit time.Duration) measured {
	// The latency log and the per-window sort buffer are allocated before
	// the phase, so the harness adds nothing to alloc_kb_per_op.
	m := measured{lat: make([]float64, 0, windows*z.windowOps)}
	window := make([]float64, z.windowOps)
	phaseStart := time.Now()
	allocs0, _ := heapNow()
	var timed, gcWall time.Duration
	sampleHeap := func() {
		t := time.Now()
		runtime.GC()
		gcWall += time.Since(t)
		if _, live := heapNow(); float64(live)/(1<<20) > m.heapLiveMB {
			m.heapLiveMB = float64(live) / (1 << 20)
		}
	}
	for w := 0; w < windows && (w < minWindows || time.Since(phaseStart) < limit); w++ {
		if !gcEveryOp {
			sampleHeap()
		}
		first := len(m.lat)
		var winTimed, winCPU time.Duration
		c0 := cpuNow()
		for j := 0; j < z.windowOps; j++ {
			i := w*z.windowOps + j
			if gcEveryOp {
				sampleHeap()
				c0 = cpuNow()
			}
			var opTr *tracer
			if tr != nil && w%tracedEvery != 0 && i%z.sample == 0 {
				opTr = tr
				tr.setOp(i)
			}
			d, ok := inst.op(i, opTr)
			if gcEveryOp {
				winCPU += cpuNow() - c0
			}
			ms := float64(d) / 1e6
			m.lat = append(m.lat, ms)
			winTimed += d
			if tr != nil {
				if opTr != nil {
					m.tracedLat = append(m.tracedLat, ms)
				} else {
					m.plainLat = append(m.plainLat, ms)
				}
			}
			m.ops++
			if !ok {
				m.failed++
			}
		}
		if !gcEveryOp {
			winCPU = cpuNow() - c0
		}
		n := float64(z.windowOps)
		copy(window, m.lat[first:])
		sort.Float64s(window)
		m.winP50 = append(m.winP50, medianSorted(window))
		m.winRate = append(m.winRate, n/winTimed.Seconds())
		m.winCPU = append(m.winCPU, float64(winCPU)/1e6/n)
		timed += winTimed
	}
	sampleHeap()
	allocs1, _ := heapNow()
	wall := time.Since(phaseStart)
	m.wallS = wall.Seconds()
	m.allocKB = float64(allocs1-allocs0) / 1024 / float64(m.ops)
	m.generatorUS = float64(wall-timed-gcWall) / 1e3 / float64(m.ops)
	return m
}

// endToEndValues turns what the loop observed into the end-to-end
// metrics (setup_s is added by the caller).
func (m measured) endToEndValues() map[string]float64 {
	return map[string]float64{
		"op_p50_ms":       quiet(m.winP50, true),
		"ops_per_s":       quiet(m.winRate, false),
		"cpu_ms_per_op":   quiet(m.winCPU, true),
		"alloc_kb_per_op": m.allocKB,
		"heap_live_mb":    m.heapLiveMB,
	}
}
