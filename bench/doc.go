// Command bench is the repository's one benchmark: four fixed-work,
// closed-loop, single-client workloads over one seeded fixture, measured
// end to end with tracing off and layer by layer in a separate traced
// run. BENCHMARK.json at the repository root names its command,
// workloads and metrics; README.md in this directory is the glossary.
//
// Usage (the contract's long flags are accepted as written):
//
//	bash bench/run.sh --workload mine_local --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -aa 5        # A/A noise check of the whole suite
//	go run ./bench -describe       # print BENCHMARK.json from the tables
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main
