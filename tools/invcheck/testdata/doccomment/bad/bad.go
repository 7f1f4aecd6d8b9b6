package bad

const Bare = 1

type Widget struct{}

func (w Widget) Spin() {}

func Exported() {}

// Pair is documented, but its two-parameter generic method is not.
type Pair[K comparable, V any] struct {
	k K
	v V
}

func (p *Pair[K, V]) Key() K { return p.k }

func unexportedIsFine() {}

type small struct{}

func (s small) Quiet() {}
