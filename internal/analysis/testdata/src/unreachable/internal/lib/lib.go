// Package lib declares one case of each rule of the unreachable check.
package lib

import "errors"

// Used is reached from main, and reaches helper and T.
func Used() T { return T{name: helper()} }

func helper() string { return "t" }

// T is reached through Used.
type T struct{ name string }

// String is kept: fmt.Stringer declares it.
func (t T) String() string { return t.name }

// Other is flagged: no interface declares it.
func (T) Other() {} // want `lib.T.Other is reached from no main package`

// Box is generic; main reaches Get through an instantiation.
type Box[V any] struct{ v V }

// Get returns the boxed value.
func (b Box[V]) Get() V { return b.v }

// Level's constants are reached through the type.
type Level int

// The levels.
const (
	Low Level = iota
	High
)

// ErrBase is the cause Fail wraps.
var ErrBase = errors.New("base")

// wrapped is reached through Fail; errors.Is calls its Unwrap.
type wrapped struct{ err error }

func (w wrapped) Error() string { return "wrapped: " + w.err.Error() }

func (w wrapped) Unwrap() error { return w.err }

// Fail returns ErrBase wrapped.
func Fail() error { return wrapped{ErrBase} }

// Unused is flagged: nothing reaches it.
func Unused() {} // want `lib.Unused is reached from no main package`

func unused() {} // want `lib.unused is reached from no main package`

// Kept carries a keep with a reason, and keeps keptHelper with it.
//
//moteur:keep fixture of the keep rule
func Kept() { keptHelper() }

func keptHelper() {}

// NoReason carries a keep without a reason.
//
//moteur:keep
func NoReason() {} // want `lib.NoReason: //moteur:keep needs a reason`

// Stale is reached from main, so its keep is stale.
//
//moteur:keep once needed by a test only
func Stale() int { return 0 } // want `lib.Stale is reached from a main package; drop its //moteur:keep`
