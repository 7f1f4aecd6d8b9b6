package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef names one reported metric. The two tables below are the
// single source of the names in BENCHMARK.json (-describe prints the file
// from them, and a test keeps the two equal).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: tolerated worsening as a share of the parent's median
	exact  bool    // a count that repeats exactly for one seed
}

// endToEnd lists the metrics a user of the system would see. Every
// workload reports every one of them with tracing off. The three timing
// metrics carry the largest bound the contract allows because a run's
// windows all sit inside one phase of the shared host (see README,
// "Host noise"); the two memory metrics are counts and are held tightly.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.25},
	{name: "alloc_kb_per_op", unit: "KB", better: "lower", bound: 0.05},
	{name: "heap_live_mb", unit: "MB", better: "lower", bound: 0.10},
}

// perLayer lists the traced run's metrics, layer (package) first. A
// workload that does not exercise a layer reports 0 for its metrics.
var perLayer = []metricDef{
	{name: "synth.baskets_ms", unit: "ms", better: "lower"},

	{name: "transactions.newdb_ms", unit: "ms", better: "lower"},
	{name: "transactions.vertical_bitset_ms", unit: "ms", better: "lower"},
	{name: "transactions.encode_stable_ms", unit: "ms", better: "lower"},
	{name: "transactions.decode_stable_ms", unit: "ms", better: "lower"},
	{name: "transactions.stable_bytes_per_tx", unit: "B", better: "lower", exact: true},
	{name: "transactions.sharded_append_ns", unit: "ns", better: "lower"},
	{name: "transactions.sharded_delete_ns", unit: "ns", better: "lower"},

	{name: "hashtree.build_ms", unit: "ms", better: "lower"},
	{name: "hashtree.count_ms", unit: "ms", better: "lower"},

	{name: "fptree.build_ms", unit: "ms", better: "lower"},
	{name: "fptree.nodes", unit: "count", better: "lower", exact: true},
	{name: "fptree.merge_ms", unit: "ms", better: "lower"},
	{name: "fptree.export_import_ms", unit: "ms", better: "lower"},

	{name: "assoc.apriori_ms.s004", unit: "ms", better: "lower"},
	{name: "assoc.apriori_ms.s002", unit: "ms", better: "lower"},
	{name: "assoc.apriori_ms.s001", unit: "ms", better: "lower"},
	{name: "assoc.fpgrowth_ms.s004", unit: "ms", better: "lower"},
	{name: "assoc.fpgrowth_ms.s002", unit: "ms", better: "lower"},
	{name: "assoc.fpgrowth_ms.s001", unit: "ms", better: "lower"},
	{name: "assoc.auto_regret.s004", unit: "ratio", better: "lower"},
	{name: "assoc.auto_regret.s002", unit: "ratio", better: "lower"},
	{name: "assoc.auto_regret.s001", unit: "ratio", better: "lower"},
	{name: "assoc.pass_ms.k1", unit: "ms", better: "lower"},
	{name: "assoc.pass_ms.k2", unit: "ms", better: "lower"},
	{name: "assoc.pass_ms.k3plus", unit: "ms", better: "lower"},
	{name: "assoc.candidates", unit: "count", better: "lower", exact: true},
	{name: "assoc.frequent", unit: "count", better: "higher", exact: true},
	{name: "assoc.rules_ms", unit: "ms", better: "lower"},
	{name: "assoc.w1_over_w2", unit: "ratio", better: "higher"},

	{name: "dist.ship_ms", unit: "ms", better: "lower"},
	{name: "dist.count_ms", unit: "ms", better: "lower"},
	{name: "dist.coord_self_ms", unit: "ms", better: "lower"},
	{name: "dist.calls", unit: "count", better: "lower", exact: true},
	{name: "dist.shipped_shards", unit: "count", better: "lower", exact: true},
	{name: "dist.gob_share", unit: "ratio", better: "lower"},
	{name: "dist.overhead_x", unit: "ratio", better: "lower"},

	{name: "mining.mine_ms.s004", unit: "ms", better: "lower"},
	{name: "mining.mine_ms.s002", unit: "ms", better: "lower"},
	{name: "mining.mine_ms.s001", unit: "ms", better: "lower"},
	{name: "mining.session_full_ms", unit: "ms", better: "lower"},
	{name: "mining.session_maintain_ms", unit: "ms", better: "lower"},
	{name: "mining.maintain_dirty_shards", unit: "count", better: "lower", exact: true},
	{name: "mining.maintain_recounted_tx", unit: "count", better: "lower", exact: true},

	{name: "serve.parse_us", unit: "us", better: "lower"},
	{name: "serve.query_hit_us", unit: "us", better: "lower"},
	{name: "serve.query_miss_us", unit: "us", better: "lower"},
	{name: "serve.support_us", unit: "us", better: "lower"},
	{name: "serve.encode_us", unit: "us", better: "lower"},
	{name: "serve.cache_hit_ratio", unit: "ratio", better: "higher", exact: true},
	{name: "serve.resp_bytes_per_op", unit: "B", better: "lower", exact: true},
	{name: "serve.enqueue_us", unit: "us", better: "lower"},
	{name: "serve.flush_ms", unit: "ms", better: "lower"},
	{name: "serve.maintains", unit: "count", better: "lower", exact: true},
	{name: "serve.full_runs", unit: "count", better: "lower", exact: true},
	{name: "serve.snapshots", unit: "count", better: "lower", exact: true},
	{name: "serve.new_ms", unit: "ms", better: "lower"},
	{name: "serve.restart_ms", unit: "ms", better: "lower"},
	{name: "serve.close_ms", unit: "ms", better: "lower"},

	{name: "wal.syncs_per_kop", unit: "count", better: "lower", exact: true},
	{name: "wal.writes_per_kop", unit: "count", better: "lower", exact: true},
	{name: "wal.log_bytes_per_op", unit: "B", better: "lower", exact: true},
	{name: "wal.snap_bytes_per_op", unit: "B", better: "lower", exact: true},
	{name: "wal.append_us", unit: "us", better: "lower"},
	{name: "wal.snapshot_ms", unit: "ms", better: "lower"},
	{name: "wal.recover_ms", unit: "ms", better: "lower"},
	{name: "wal.recovered_ops", unit: "count", better: "higher", exact: true},

	{name: "bench.op_p90_ms", unit: "ms", better: "lower"},
	{name: "bench.op_p99_ms", unit: "ms", better: "lower"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "bench.window_spread_pct", unit: "%", better: "lower"},
	{name: "bench.generator_us_per_op", unit: "us", better: "lower"},
	{name: "bench.span_coverage", unit: "ratio", better: "higher"},
	{name: "bench.spans", unit: "count", better: "lower"},
	{name: "bench.ops", unit: "count", better: "higher", exact: true},
	{name: "bench.measured_s", unit: "s", better: "lower"},
	{name: "bench.reference_ms", unit: "ms", better: "lower"},
}

// workloadDef is one BENCHMARK.json workload entry.
type workloadDef struct {
	name string
	why  string
}

// workloadDefs are the four workloads and why each exists.
var workloadDefs = []workloadDef{
	{"mine_local", "analyst batch path: a support ladder across the Apriori/FPGrowth crossover through the Auto engine; assoc, fptree, hashtree and transactions do all the work, dist, serve and wal none"},
	{"mine_dist", "the same counting kernels behind the gob transport, all shards shipped per mine; dist encode, ship, decode and merge is over half the op here and absent from mine_local"},
	{"serve_read", "Zipf-skewed GETs over a query pool 8x the result cache, so hits and misses both occur: parse, cache, query, encode on the serve read side, with mining idle"},
	{"serve_write", "sliding-window ingest on a durable server: enqueue, WAL, ack on most cycles and incremental maintain, publish, snapshot on every eighth; the write side of serve, wal and the maintainer"},
}

// report is the one JSON object a run prints last.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// buildReport keeps exactly the metrics of defs, reading each from
// values (a metric nothing measured reads 0).
func buildReport(defs []metricDef, values map[string]float64, attempted, failed int, correct bool) report {
	r := report{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return r
}

// printHuman lists the metrics by name, one per line, for a person.
func printHuman(w io.Writer, r report) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}

// describe renders BENCHMARK.json from the tables above.
func describe(runSeconds int) ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadDefs {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
