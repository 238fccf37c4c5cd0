package experiments

import "testing"

func TestAsyncVsSync(t *testing.T) {
	forSeeds(t, tiny(), func(t *testing.T, s Scale) {
		s.Rounds = 8
		rows := AsyncVsSync(s)
		if len(rows) != 2 {
			t.Fatalf("got %d rows", len(rows))
		}
		sync, async := rows[0], rows[1]
		if sync.Mode != "synchronous" || async.Mode != "asynchronous" {
			t.Fatal("row order")
		}
		if async.FinalAccuracy < 0.4 {
			t.Fatalf("async accuracy %v collapsed", async.FinalAccuracy)
		}
		// the headline: async reaches the shared target sooner in virtual time
		if sync.TimeToTargetSec > 0 && async.TimeToTargetSec > 0 &&
			async.TimeToTargetSec >= sync.TimeToTargetSec {
			t.Fatalf("async %vs should beat sync %vs", async.TimeToTargetSec, sync.TimeToTargetSec)
		}
		_ = AsyncTable(rows).String()
	})
}
