package bad

func TestExemptFromTheGate() {}
