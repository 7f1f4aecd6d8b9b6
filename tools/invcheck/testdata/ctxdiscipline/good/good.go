// Package serve is a ctxdiscipline good fixture: ctx-first shard
// loops, unexported helpers, and loops over non-shard data.
package serve

import "context"

// CountShards takes ctx first, as every cancellable shard loop must.
func CountShards(ctx context.Context, shards []int) int {
	total := 0
	for _, sh := range shards {
		if ctx.Err() != nil {
			return total
		}
		total += sh
	}
	return total
}

// countLocal is unexported: internal helpers inherit their caller's
// polling contract and are not gated.
func countLocal(shards []int) int {
	n := 0
	for range shards {
		n++
	}
	return n
}

// TopRules loops, but not over shards or transactions: not gated.
func TopRules(rules []string) []string {
	var out []string
	for _, r := range rules {
		out = append(out, r)
	}
	return out
}
