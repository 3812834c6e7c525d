// Package unusedexport exercises the unusedexport analyzer: an export
// that no non-test file references is a finding; a method reached
// through a generic instance, an interface, an embedded struct or the
// errors package is not.
package unusedexport

func UnusedFunc() {} // want `exported UnusedFunc has no non-test reference`

const UnusedConst = 1 // want `exported UnusedConst has no non-test reference`

type UnusedType struct{} // want `exported UnusedType has no non-test reference`

func Helper() {} // want `exported Helper has no non-test reference`

type Box[T any] struct{ v T }

func (b *Box[T]) Get() T { return b.v }

func (b *Box[T]) Put(v T) { b.v = v } // want `exported Box\.Put has no non-test reference`

type shape interface{ Area() int }

type square struct{ side int }

func (s square) Area() int { return s.side * s.side }

type Unit struct{} // want `exported Unit has no non-test reference`

func (Unit) Area() int { return 1 }

type base struct{}

func (base) Name() string { return "base" }

type named struct{ base }

type namer interface{ Name() string }

type counter struct{}

func (counter) Count() int { return 1 }

type wrapErr struct{ err error }

func (e *wrapErr) Error() string { return e.err.Error() }

func (e *wrapErr) Unwrap() error { return e.err }

//ncsw:allow unusedexport the fixture proves suppression
func Allowed() {}

func use(x any) int {
	n := 0
	if c, ok := x.(interface{ Count() int }); ok {
		n = c.Count()
	}
	var b Box[int]
	var s shape = square{2}
	var m namer = named{}
	return n + b.Get() + s.Area() + len(m.Name())
}
