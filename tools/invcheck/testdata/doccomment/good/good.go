// Package good is a fully documented fixture: every exported identifier
// carries a doc comment, so the doccomment analyzer must report nothing.
package good

// Answer is a documented exported const.
const Answer = 42

// Grouped consts share the block comment.
const (
	One = 1
	Two = 2
)

// Grouped types share the block comment too.
type (
	T1 struct{}
	T2 struct{}
)

// List is a documented generic type.
type List[T any] struct{ items []T }

// Push is a documented method on a generic receiver.
func (l *List[T]) Push(v T) { l.items = append(l.items, v) }

// Name is a documented exported var.
var Name = "good"

// Thing is a documented exported type.
type Thing struct{}

// Do is a documented exported method.
func (t Thing) Do() {}

// Run is a documented exported function.
func Run() {}

type hidden struct{}

func (h hidden) poke() {}

func internal() {}

// EOL-commented exported values pass too.
var (
	Port = 80 // Port is the default port.
)
