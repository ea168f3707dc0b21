//go:build go1.23

package sim

import "iter"

// newCoro starts body as a coroutine: next switches into it until it calls
// yield or returns, stop makes its pending yield return false. This file
// is the package's only use of Go 1.23 library API; the build constraint
// raises the file's language version above go.mod's go 1.21 line, and
// there is deliberately no older-toolchain fallback.
func newCoro(body func(yield func(struct{}) bool)) (next func() (struct{}, bool), stop func()) {
	return iter.Pull(iter.Seq[struct{}](body))
}
