// Fixture: allow-directive hygiene — unknown rules, missing reasons and
// stale directives are findings themselves.
package nn

//fhdnn:allow bogus-rule some reason // want allow "malformed directive"

//fhdnn:allow determinism // want allow "malformed directive"

// aliasing is a retired rule; a leftover directive for it must not pass
// silently.
//fhdnn:allow aliasing fixture: in-place accumulate is well-defined // want allow "malformed directive"

// Fine has no violation below the directive, so the exception is stale.
func Fine() int {
	//fhdnn:allow goroutine fixture: nothing here spawns goroutines anymore // want allow "directive suppresses no goroutine finding"
	return 1
}
