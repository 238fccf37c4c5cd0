// Fixture: wire-error tier B — outside the wire packages only calls into
// serialization-relevant packages (net/http, encoding/json, io, os, the
// module wire packages) are checked; prints and go statements are fine in
// a binary, which owns its process.
package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
)

func main() {
	resp, err := http.Get("http://127.0.0.1:0/v1/model")
	if err != nil {
		fmt.Println("fetch:", err) // no finding: binaries may print
		return
	}
	defer resp.Body.Close() // want wire-error "deferred error from resp.Body.Close is dropped on a wire path"

	var v struct{}
	json.NewDecoder(resp.Body).Decode(&v) // want wire-error "error from Decode is dropped on a wire path"

	go serve() // no finding: the goroutine rule covers library code only

	f, _ := os.Create("out.json")
	f.Close() // want wire-error "error from f.Close is dropped on a wire path"

	work() // no finding: module-local callee outside the wire set
}

func serve() {}

// work returns an error from a non-wire callee: dropped without a
// finding because tier B only audits serialization packages.
func work() error { return nil }
