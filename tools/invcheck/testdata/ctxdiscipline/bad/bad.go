// Package dist is a ctxdiscipline bad fixture: exported shard loops
// without a leading ctx (a request/reply method among them), a misnamed
// context parameter, and a struct capturing a context.
package dist

import "context"

// CountAll loops over shards but takes no context at all.
func CountAll(shards []int) int {
	total := 0
	for _, sh := range shards {
		total += sh
	}
	return total
}

// ScanTransactions has a context, but not first and not named ctx.
func ScanTransactions(transactions []int, c context.Context) int {
	n := 0
	for range transactions {
		n++
	}
	_ = c
	return n
}

// Worker answers count requests.
type Worker struct{}

// CountArgs is a count request.
type CountArgs struct{ Shards []int }

// CountReply is a count reply.
type CountReply struct{ Total int }

// CountShards has the request/reply shape (value args, pointer reply,
// error result) but no ctx: a request it serves cannot be cancelled.
func (w *Worker) CountShards(args CountArgs, reply *CountReply) error {
	for _, sh := range args.Shards {
		reply.Total += sh
	}
	return nil
}

type pinnedScanner struct {
	ctx context.Context
}
