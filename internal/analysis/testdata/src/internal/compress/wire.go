// Fixture: wire-error tier A (every dropped error inside a wire package)
// and print-panic (no prints or panics in library/wire packages).
package compress

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"fixture/internal/invariant"
)

// Flush drops errors three ways: bare statement, defer, goroutine.
func Flush(w io.WriteCloser, data []byte) {
	w.Write(data)   // want wire-error "error from w.Write is dropped on a wire path"
	defer w.Close() // want wire-error "deferred error from w.Close is dropped on a wire path"
	go w.Close()    // want goroutine "go statement in library code" // want wire-error "goroutine-spawned error from w.Close is dropped on a wire path"
}

// FlushChecked handles or visibly discards every error: no findings.
func FlushChecked(w io.WriteCloser, data []byte) error {
	if _, err := w.Write(data); err != nil {
		return err
	}
	_ = w.Close() // explicit discard is a reviewable acknowledgement
	return nil
}

// BufferWrites exercises the never-fails exemption: no findings.
func BufferWrites(buf *bytes.Buffer) {
	buf.WriteByte(0)
	buf.WriteString("ok")
}

// Debug prints from a library package.
func Debug(v any) {
	fmt.Println("decoded:", v) // want print-panic "fmt.Println in a library package writes to stdout"
	println("decoded")         // want print-panic "builtin println in a library package writes to stderr"
}

// Decode panics on malformed input instead of returning an error.
func Decode(data []byte) []float32 {
	if len(data) == 0 {
		panic("compress: empty payload") // want print-panic "panic in a wire package"
	}
	return nil
}

// CheckDims reports programmer errors through the sanctioned helper: the
// helper call itself returns nothing, so no finding fires here.
func CheckDims(n, want int) {
	if n != want {
		invariant.Failf("compress: dims %d, want %d", n, want)
	}
}

// WriteFile checks the write but lets Fprintf to a file drop its error
// inside a wire package (tier A catches any callee).
func WriteFile(f *os.File) {
	fmt.Fprintf(f, "header\n") // want wire-error "error from fmt.Fprintf is dropped on a wire path"
}
