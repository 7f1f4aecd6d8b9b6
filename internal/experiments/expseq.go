package experiments

import (
	"time"

	"repro/internal/seqmine"
)

// timeSeqMiner runs one sequence miner, reporting its duration and total
// candidate count.
func timeSeqMiner(seqs []seqmine.Sequence, minSup float64, aprioriAll bool, candidates *int) time.Duration {
	var m seqmine.Miner
	if aprioriAll {
		m = &seqmine.AprioriAll{}
	} else {
		m = &seqmine.GSP{}
	}
	start := time.Now()
	res, err := m.Mine(seqs, minSup)
	dur := time.Since(start)
	if err == nil && candidates != nil {
		total := 0
		for _, p := range res.Passes {
			total += p.Candidates
		}
		*candidates = total
	}
	return dur
}
