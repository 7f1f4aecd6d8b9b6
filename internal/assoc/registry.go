package assoc

// Registered returns fresh instances of the engines something runs — the
// names the public Algorithm option accepts, in the order
// mining.Algorithms lists them. The slice literal is the compile-time
// check that each one is an Engine. The reference engines of paper tables
// A1 to A6 (AIS, SETM, AprioriTid, AprioriHybrid, Partition, Sampling) are
// not here: internal/experiments and the equivalence tests construct them
// directly.
func Registered() []Engine {
	return []Engine{
		&Apriori{},
		&DHP{},
		&Eclat{},
		&FPGrowth{},
		&Auto{},
		&Distributed{},
	}
}
