// Fixture: goroutine rule — go statements in library code outside the
// sanctioned spawners. Only engine.go beside this file is exempt.
package fedcore

import "sync"

// FanOutBad spawns raw goroutines from a package that should use the
// tensor pool.
func FanOutBad(jobs []func()) {
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(f func()) { // want goroutine "go statement in library code outside the worker pools"
			defer wg.Done()
			f()
		}(j)
	}
	wg.Wait()
}
