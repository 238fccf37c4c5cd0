// Fixture: allow-directive hygiene — unknown rules, missing reasons and
// stale directives are findings themselves.
package nn

//fhdnn:allow bogus-rule some reason // want allow "malformed directive"

//fhdnn:allow determinism // want allow "malformed directive"

// aliasing is a retired rule; a leftover directive for it must not pass
// silently.
//fhdnn:allow aliasing fixture: in-place accumulate is well-defined // want allow "malformed directive"

// float64 was retired the same way: its leftover directive is malformed.
//fhdnn:allow float64 fixture: documented high-precision reduction // want allow "malformed directive"

// hotalloc was retired too, but one directive for it waits on a benchmark
// change, so a hotalloc directive with a reason is well formed and never
// stale: no finding. Without a reason it is malformed like any other.
//fhdnn:allow hotalloc fixture: amortized append, callers reuse capacity
//fhdnn:allow hotalloc // want allow "malformed directive"

// Fine has no violation below the directive, so the exception is stale.
func Fine() int {
	//fhdnn:allow goroutine fixture: nothing here spawns goroutines anymore // want allow "directive suppresses no goroutine finding"
	return 1
}
