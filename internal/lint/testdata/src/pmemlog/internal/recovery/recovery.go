// Package recovery stubs the log replay recovery procedure. It mutates
// the image directly — that is its job — and serves as the nobackdoor
// analyzer's negative case: an exempt package full of raw writes that
// must produce zero findings.
package recovery

import "pmemlog/internal/mem"

// Redo re-applies a committed update to the image.
func Redo(img *mem.Physical, a mem.Addr, w mem.Word) {
	img.WriteWord(a, w)
}

// Undo rolls an uncommitted update back.
func Undo(img *mem.Physical, a mem.Addr, old mem.Word) {
	img.WriteWord(a, old)
}
