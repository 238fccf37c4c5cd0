// Fixture: goroutine rule negative — the round engine's file owns its
// worker pool, so go statements are allowed here; fan.go beside it, in
// the same package, is not exempt.
package fedcore

import "sync"

// RunPool starts a fixed pool of workers and joins them.
func RunPool(workers int, work func(worker int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) { // no finding: the engine file is a sanctioned spawner
			defer wg.Done()
			work(worker)
		}(w)
	}
	wg.Wait()
}
