// Command fhdnn-server runs the federated bundling aggregation service:
// it hosts the global HD model over HTTP, collects client prototype
// updates, and aggregates them round by round (paper Eq. 1).
//
// Usage:
//
//	fhdnn-server -addr :8080 -classes 10 -dim 10000 -min-updates 20 -rounds 100
//
// Fault tolerance: -round-deadline closes a round after that long even if
// fewer than -min-updates arrived (a round with zero updates is carried
// forward), and -max-update-norm quarantines norm-exploded updates
// (non-finite ones are always quarantined, HTTP 422). SIGINT/SIGTERM
// triggers a graceful shutdown that folds any pending updates into the
// model before exiting. Client retry behaviour is rehearsed from the
// client side: fhdnn-client's -fault-* flags inject transport failures
// (refused connections, truncated responses, latency) into its own
// requests.
//
// Byzantine robustness: -aggregator selects the commit rule — "bundle"
// (default, sum + 1/N), "fedavg" (sample-weighted mean), "median"
// (coordinate-wise median), "trimmed:0.2" (coordinate-wise trimmed
// mean), or "clip:BOUND[:inner]" to L2-clip every accepted update before
// handing it to an inner policy. The robust rules tolerate a colluding
// minority of poisoned clients that the quarantine gate cannot catch
// (finite, norm-respecting, but adversarial updates).
//
// Backpressure: every upload folds into one aggregator on its own
// handler goroutine, behind one token. Too many uploads waiting on it
// answer 429 + Retry-After, and an upload that waits 30 s for the token
// answers 503. The round commit waits for the token too, so an Add that
// never returns stalls the round visibly instead of losing it (see
// DESIGN.md, "Backpressure & round commit").
//
// When -rounds is reached the server stops accepting updates (410), keeps
// answering for a short drain so every polling client reads that the run
// closed, and, if -checkpoint is set, writes the final global model there.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"fhdnn/internal/fedcore"
	"fhdnn/internal/flnet"
)

const (
	// closeDrain is how long the listener stays up after the run closes,
	// longer than one fhdnn-client poll (200 ms, jittered up to 300 ms):
	// a client that uploaded to the last round and is polling /v1/round
	// reads "closed" instead of a refused connection. It covers polling
	// clients only: one still training its last model, or waiting out a
	// failure backoff (poll x failures, up to 8 x 300 ms), may find the
	// listener gone, as when there are more clients than -min-updates.
	closeDrain = time.Second
	// shutdownBudget bounds the graceful teardown, the drain included.
	shutdownBudget = 5 * time.Second
)

// sortedKeys returns the map's keys in stable order for logging.
func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fhdnn-server:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	classes := flag.Int("classes", 10, "number of classes K")
	dim := flag.Int("dim", 10000, "hypervector dimensionality d")
	minUpdates := flag.Int("min-updates", 2, "client updates that close a round")
	rounds := flag.Int("rounds", 0, "stop after this many rounds (0 = run forever)")
	deadline := flag.Duration("round-deadline", 0, "force-close a round after this long (0 = wait for min-updates)")
	maxNorm := flag.Float64("max-update-norm", 0, "quarantine updates with a larger L2 norm (0 = only non-finite)")
	aggSpec := flag.String("aggregator", "bundle", "aggregation policy: bundle, fedavg, median, trimmed[:frac], clip:bound[:inner]")
	checkpoint := flag.String("checkpoint", "", "write the final model to this file")
	flag.Parse()

	agg, err := fedcore.ParseAggregator(*aggSpec)
	if err != nil {
		return err
	}
	srv, err := flnet.NewServer(flnet.ServerConfig{
		NumClasses:    *classes,
		Dim:           *dim,
		MinUpdates:    *minUpdates,
		MaxRounds:     *rounds,
		RoundDeadline: *deadline,
		MaxUpdateNorm: *maxNorm,
		Aggregator:    agg,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("aggregating %dx%d HD models at http://%s (min %d updates/round, %d rounds, deadline %v, %s aggregation)",
		*classes, *dim, ln.Addr(), *minUpdates, *rounds, *deadline, fedcore.AggregatorName(agg))
	codecNames := make([]string, 0, len(fedcore.AllCodecIDs()))
	for _, id := range fedcore.AllCodecIDs() {
		codecNames = append(codecNames, fedcore.CodecName(id))
	}
	log.Printf("accepting wire envelopes: %s", strings.Join(codecNames, ", "))

	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}

	// Serve until the configured rounds complete or a signal arrives.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	// The long-running HTTP serve loop; its error is joined through errc.
	go func() { errc <- httpSrv.Serve(ln) }()

	wait := func() error {
		for {
			select {
			case <-ctx.Done():
				log.Printf("signal received: closing the current round and shutting down")
				return nil
			case err := <-errc:
				if errors.Is(err, http.ErrServerClosed) {
					return nil
				}
				return err
			case <-time.After(100 * time.Millisecond):
				if *rounds > 0 && srv.Closed() {
					log.Printf("training finished after %d rounds", *rounds)
					return nil
				}
			}
		}
	}
	if err := wait(); err != nil {
		return err
	}

	// Graceful teardown: fold pending updates into the model, keep
	// answering "closed" for the drain, then stop accepting connections.
	// A round that cannot be folded in time still leaves a closed server
	// to tear down and stats to report.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownBudget)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("round not folded: an aggregator Add never returned the token (%v)", err)
	}
	time.Sleep(closeDrain)
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}

	st := srv.Stats()
	log.Printf("final stats: %d accepted, %d rejected, %d quarantined, %d duplicates, %d deadline-forced rounds, %d bytes received",
		st.UpdatesAccepted, st.UpdatesRejected, st.UpdatesQuarantined,
		st.DuplicateUpdates, st.RoundsForcedByDeadline, st.BytesReceived)
	if st.UpdatesThrottled > 0 || st.ShardTimeouts > 0 {
		log.Printf("aggregator health: %d throttled (429), %d token timeouts (503)",
			st.UpdatesThrottled, st.ShardTimeouts)
	}
	if len(st.QuarantinedByReason) > 0 {
		parts := make([]string, 0, len(st.QuarantinedByReason))
		for _, reason := range sortedKeys(st.QuarantinedByReason) {
			parts = append(parts, fmt.Sprintf("%s=%d", reason, st.QuarantinedByReason[reason]))
		}
		log.Printf("quarantined by reason: %s", strings.Join(parts, ", "))
	}
	if st.UpdatesClipped > 0 {
		log.Printf("updates norm-clipped by the aggregation policy: %d", st.UpdatesClipped)
	}
	if len(st.UpdatesByCodec) > 0 {
		parts := make([]string, 0, len(st.UpdatesByCodec))
		for _, name := range sortedKeys(st.UpdatesByCodec) {
			parts = append(parts, fmt.Sprintf("%s=%d", name, st.UpdatesByCodec[name]))
		}
		log.Printf("updates by codec: %s", strings.Join(parts, ", "))
	}

	if *checkpoint != "" {
		f, err := os.Create(*checkpoint)
		if err != nil {
			return err
		}
		model, _ := srv.Model()
		if _, err := model.WriteTo(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		log.Printf("final model written to %s", *checkpoint)
	}
	return nil
}
