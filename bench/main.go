package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// processStart is as early as the program can read the clock; setup_s
// counts from here.
var processStart = time.Now()

// runSeconds is BENCHMARK.json's run_seconds: the nominal length of one
// measured phase, and the -seconds default.
const runSeconds = 20

// overrun is how many nominal lengths a measured phase may take before the
// window loop gives up early (see measure).
const overrun = 2

// env is what a workload's set-up needs to know about the run.
type env struct {
	sc      scale
	seed    int64
	z       sizing
	windows int
	traced  bool
	// stage times of the last set-up, ms, by per-layer metric name
	// (synth.baskets_ms, transactions.newdb_ms, serve.new_ms).
	stages map[string]float64
}

// totalOps is the length of the measured op sequence.
func (e *env) totalOps() int { return e.windows * e.z.windowOps }

// workloadImpl binds a workload name to its set-up.
type workloadImpl struct {
	setup     func(e *env) (instance, error)
	gcEveryOp bool
}

// workloads maps the BENCHMARK.json names to their implementations.
var workloads = map[string]workloadImpl{
	"mine_local":  {setupMineLocal, true},
	"mine_dist":   {setupMineDist, true},
	"serve_read":  {setupServeRead, false},
	"serve_write": {setupServeWrite, false},
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: mine_local, mine_dist, serve_read or serve_write")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", runSeconds, "nominal length of the measured phase; the fixed op count is the frozen rate times this")
		trace    = flag.Int("trace", 0, "1 runs the traced variant: per-layer metrics and a span file under bench/out")
		scaleArg = flag.String("scale", "full", "full or smoke (a tiny fixture for tests)")
		aa       = flag.Int("aa", 0, "run the whole suite (or only -workload) as this many interleaved A/A pairs and compare the two sides")
		desc     = flag.Bool("describe", false, "print BENCHMARK.json from the metric tables and exit")
	)
	flag.Parse()
	if *desc {
		out, err := describe(runSeconds)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(out)
		return
	}
	if *aa > 0 {
		os.Exit(runAA(*aa, *workload, *seed, *seconds, *scaleArg))
	}
	rep, err := runWorkload(processStart, os.Stderr, *workload, *scaleArg, *seed, *seconds, *trace == 1, filepath.Join("bench", "out"))
	if err != nil {
		fatal(err)
	}
	printHuman(os.Stderr, rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// fatal reports a harness error and exits without printing a result.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runWorkload sets a workload up, measures it and checks it. An untraced
// run reports the end-to-end metrics; a traced run repeats the same work
// with spans, writes them to outDir, and reports the per-layer metrics.
// start is when the process (or the test's run) began; setup_s counts
// from it. The traced run's self-time table goes to log.
func runWorkload(start time.Time, log io.Writer, name, scaleName string, seed int64, seconds int, traced bool, outDir string) (report, error) {
	impl, ok := workloads[name]
	if !ok {
		return report{}, fmt.Errorf("unknown workload %q", name)
	}
	sc, ok := scales[scaleName]
	if !ok {
		return report{}, fmt.Errorf("unknown scale %q", scaleName)
	}
	if seconds < 1 {
		return report{}, fmt.Errorf("seconds %d: want at least 1", seconds)
	}
	// Two OS threads' worth of Go code on every host, so Workers(2) means
	// the same thing wherever the run lands.
	runtime.GOMAXPROCS(2)
	e := &env{sc: sc, seed: seed, z: sc.sizing[name], traced: traced, stages: make(map[string]float64)}
	e.windows = e.z.windows(seconds)

	// Set up several times and report the median: one set-up is a second
	// or two of single-threaded work and inherits the host's mood. A
	// traced run reports no setup_s and sets up once.
	reps := sc.setupReps
	if traced {
		reps = 1
	}
	preamble := time.Since(start)
	var inst instance
	var setups []float64
	for r := 0; r < reps; r++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
		}
		t := time.Now()
		var err error
		if inst, err = impl.setup(e); err != nil {
			return report{}, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	t := time.Now()
	if err := inst.reference(); err != nil {
		inst.close()
		return report{}, fmt.Errorf("%s: reference: %w", name, err)
	}
	referenceMS := float64(time.Since(t)) / 1e6

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	m := measure(inst, e.z, e.windows, impl.gcEveryOp, tr, time.Duration(overrun*seconds)*time.Second)

	values := m.endToEndValues()
	values["setup_s"] = preamble.Seconds() + median(setups)
	for k, v := range e.stages {
		values[k] = v
	}
	values["bench.reference_ms"] = referenceMS
	values["bench.op_p90_ms"] = percentile(m.lat, 90)
	values["bench.op_p99_ms"] = percentile(m.lat, 99)
	values["bench.window_spread_pct"] = spreadPct(m.winP50)
	values["bench.generator_us_per_op"] = m.generatorUS
	values["bench.ops"] = float64(m.ops)
	values["bench.measured_s"] = m.wallS
	if traced {
		if plain := median(m.plainLat); plain > 0 {
			values["bench.trace_overhead_pct"] = 100 * (median(m.tracedLat)/plain - 1)
		}
		addSpanMetrics(log, values, tr.spans, len(m.tracedLat))
		if err := writeTrace(filepath.Join(outDir, name+".trace.json"), name, tr.spans); err != nil {
			inst.close()
			return report{}, fmt.Errorf("%s: writing trace: %w", name, err)
		}
	}
	checks, failed, err := inst.finish(values, traced)
	if err != nil {
		return report{}, fmt.Errorf("%s: end-of-run checks: %w", name, err)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	failed += m.failed
	return buildReport(defs, values, m.ops+checks, failed, failed == 0), nil
}
