package assoc

// Registered returns fresh instances of the engines something runs — the
// names the public Algorithm option accepts, in the order
// mining.Algorithms lists them. The slice literal is the compile-time
// check that each one is an Engine. The reference engines (AIS, SETM,
// AprioriTid, AprioriHybrid, Partition, Sampling) are not here: they
// live in internal/assoc/reference, and internal/experiments and that
// package's tests construct them directly.
func Registered() []Engine {
	return []Engine{
		&Apriori{},
		&Eclat{},
		&FPGrowth{},
		&Auto{},
		&Distributed{},
	}
}
