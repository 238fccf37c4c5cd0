// Command fhdnn-loadgen stress-drives a flnet aggregation server with a
// large simulated client fleet over real HTTP — the load harness for the
// round pipeline. It spins up an in-process server (or targets
// an external one with -url), then pushes one update per client per
// round through a bounded worker pool, mixing wire codecs and optionally
// lacing in a poisoner fraction whose non-finite updates exercise the
// quarantine gate. Throttled uploads (429) are retried honoring the
// server's Retry-After hint, so the harness observes backpressure the
// way a production fleet would.
//
// The run reports rounds/sec, upload-latency percentiles (p50/p95/p99/
// max), bytes per round, and the server's final stats snapshot —
// including the aggregation queue's gauges — as JSON:
//
//	go run ./cmd/fhdnn-loadgen -clients 100000 -rounds 3 -out LOADGEN.json
//
// Against an external server (-url), configure that server with
// -min-updates equal to the clean (non-poisoner) client count so each
// dispatch wave closes exactly one round.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fhdnn/internal/compress"
	"fhdnn/internal/fedcore"
	"fhdnn/internal/flnet"
	"fhdnn/internal/hdc"
)

// LatencySummary is the upload-latency percentile block of the report.
// Latencies are measured per PushUpdate call, retries included — the
// client-visible time to get an update accepted (or refused).
type LatencySummary struct {
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// Report is the JSON result of one load run.
type Report struct {
	GoVersion   string   `json:"go_version"`
	NumCPU      int      `json:"num_cpu"`
	Clients     int      `json:"clients"`
	Concurrency int      `json:"concurrency"`
	Rounds      int      `json:"rounds"`
	Shards      int      `json:"shards"`
	Classes     int      `json:"classes"`
	Dim         int      `json:"dim"`
	PoisonFrac  float64  `json:"poison_frac"`
	Codecs      []string `json:"codecs"`

	ElapsedSec    float64 `json:"elapsed_sec"`
	RoundsPerSec  float64 `json:"rounds_per_sec"`
	UploadsPerSec float64 `json:"uploads_per_sec"`
	BytesPerRound float64 `json:"bytes_per_round"`

	Uploads     int64 `json:"uploads"`
	Accepted    int64 `json:"accepted"`
	Quarantined int64 `json:"quarantined"`
	Stale       int64 `json:"stale"`
	Throttled   int64 `json:"throttled_gave_up"`
	Gone        int64 `json:"refused_closed"`
	Failed      int64 `json:"failed"`

	Latency LatencySummary `json:"upload_latency"`
	Server  flnet.Stats    `json:"server_stats"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fhdnn-loadgen:", err)
		os.Exit(1)
	}
}

// isPoisoner deterministically spreads the poisoner fraction evenly over
// the client index space: client i poisons exactly when the accumulated
// fraction crosses an integer at i, which yields floor(clients*frac)
// poisoners for any fleet size.
func isPoisoner(client int, frac float64) bool {
	return math.Floor(float64(client+1)*frac) > math.Floor(float64(client)*frac)
}

func run() error {
	clients := flag.Int("clients", 100000, "simulated clients (one update per client per round)")
	concurrency := flag.Int("concurrency", 256, "concurrent upload workers")
	rounds := flag.Int("rounds", 3, "federation rounds to drive")
	classes := flag.Int("classes", 2, "model classes K")
	dim := flag.Int("dim", 512, "hypervector dimensionality d")
	poisonFrac := flag.Float64("poison-frac", 0.01, "fraction of clients sending non-finite (quarantine-bound) updates")
	codecSpec := flag.String("codecs", "raw,float16,int8", "comma-separated codec cycle assigned to clients round-robin (raw, float16, int8, topk[:frac])")
	urlFlag := flag.String("url", "", "drive this external server instead of an in-process one")
	out := flag.String("out", "LOADGEN.json", "write the JSON report here ('' to skip)")
	flag.Parse()

	if *clients <= 0 || *rounds <= 0 || *concurrency <= 0 {
		return errors.New("clients, rounds, and concurrency must be positive")
	}
	mixNames := strings.Split(*codecSpec, ",")
	mix := make([]compress.Codec, len(mixNames))
	var err error
	for i, name := range mixNames {
		mixNames[i] = strings.TrimSpace(name)
		if mix[i], err = fedcore.ParseCodec(mixNames[i]); err != nil {
			return err
		}
	}
	clean := 0
	for i := 0; i < *clients; i++ {
		if !isPoisoner(i, *poisonFrac) {
			clean++
		}
	}
	if clean == 0 {
		return errors.New("poison-frac leaves no clean clients to close a round")
	}

	// Target server: external, or an in-process one on loopback.
	baseURL := *urlFlag
	var srv *flnet.Server
	var httpSrv *http.Server
	if baseURL == "" {
		srv, err = flnet.NewServer(flnet.ServerConfig{
			NumClasses: *classes,
			Dim:        *dim,
			MinUpdates: clean,
			MaxRounds:  *rounds,
		})
		if err != nil {
			return err
		}
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			return lerr
		}
		httpSrv = &http.Server{Handler: srv.Handler()}
		//fhdnn:allow goroutine long-running HTTP serve loop for the in-process target; torn down via Close at the end of the run
		go func() { _ = httpSrv.Serve(ln) }()
		baseURL = "http://" + ln.Addr().String()
		fmt.Printf("in-process server at %s: min %d updates/round\n", baseURL, clean)
	}

	// One shared transport sized for the pool, so uploads reuse
	// keep-alive connections instead of exhausting ephemeral ports.
	transport := &http.Transport{
		MaxIdleConns:        2 * *concurrency,
		MaxIdleConnsPerHost: 2 * *concurrency,
	}
	httpc := &http.Client{Transport: transport}
	ctx := context.Background()

	var accepted, quarantined, stale, throttled, gone, failed atomic.Int64
	latencies := make([][]time.Duration, *concurrency)

	type job struct{ round, client int }
	jobs := make(chan job, 4**concurrency)
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		w := w
		latencies[w] = make([]time.Duration, 0, (*clients / *concurrency + 1)**rounds)
		//fhdnn:allow goroutine bounded upload-worker pool; joined per round through the dispatch WaitGroup and drained by closing jobs
		go func() {
			c := &flnet.Client{
				BaseURL:    baseURL,
				HTTPClient: httpc,
				Retry: &flnet.RetryPolicy{
					MaxAttempts: 8,
					BaseDelay:   20 * time.Millisecond,
					MaxDelay:    2 * time.Second,
				},
			}
			m := hdc.NewModel(*classes, *dim)
			flat := m.Flat()
			for jb := range jobs {
				c.ID = "load-" + strconv.Itoa(jb.client)
				poison := isPoisoner(jb.client, *poisonFrac)
				if poison {
					c.Codec = compress.Raw{} // the lossy codecs would quantize the NaN away
				} else {
					c.Codec = mix[jb.client%len(mix)]
				}
				base := float32(jb.client%23 - 11)
				for j := range flat {
					flat[j] = base + float32((j+jb.round)%7)
				}
				if poison {
					flat[0] = float32(math.NaN())
				}
				t0 := time.Now()
				err := c.PushUpdate(ctx, jb.round, m)
				latencies[w] = append(latencies[w], time.Since(t0))
				var quar flnet.ErrQuarantined
				var st flnet.ErrStaleRound
				var thr flnet.ErrThrottled
				var he *flnet.HTTPError
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.As(err, &quar):
					quarantined.Add(1)
				case errors.As(err, &st):
					stale.Add(1)
				case errors.As(err, &thr):
					throttled.Add(1)
				case errors.As(err, &he) && he.StatusCode == http.StatusGone:
					// A straggler landing after MaxRounds closed the server —
					// the expected end-of-training refusal, not a failure.
					gone.Add(1)
				default:
					failed.Add(1)
				}
				wg.Done()
			}
		}()
	}

	poll := &flnet.Client{BaseURL: baseURL, HTTPClient: httpc,
		Retry: &flnet.RetryPolicy{MaxAttempts: 6}}
	start := time.Now()
	for r := 1; r <= *rounds; r++ {
		wg.Add(*clients)
		for i := 0; i < *clients; i++ {
			jobs <- job{round: r, client: i}
		}
		wg.Wait()
		// The MinUpdates-th clean upload closes the round synchronously;
		// poll only to fail loudly if an external server is misconfigured.
		waitCtx, cancel := context.WithTimeout(ctx, time.Minute)
		info, werr := poll.WaitForRound(waitCtx, r+1, 10*time.Millisecond)
		cancel()
		if werr != nil {
			return fmt.Errorf("round %d never closed (external -min-updates must equal the clean client count %d): %w", r, clean, werr)
		}
		fmt.Printf("round %d closed (server at round %d, closed=%v)\n", r, info.Round, info.Closed)
	}
	elapsed := time.Since(start)
	close(jobs)

	// Final server snapshot: direct for the in-process server, /v1/stats
	// for an external one.
	var stats flnet.Stats
	if srv != nil {
		_ = srv.Shutdown(ctx)
		stats = srv.Stats()
		_ = httpSrv.Close()
	} else {
		resp, gerr := httpc.Get(baseURL + "/v1/stats")
		if gerr != nil {
			return gerr
		}
		derr := json.NewDecoder(resp.Body).Decode(&stats)
		_ = resp.Body.Close()
		if derr != nil {
			return derr
		}
	}

	var all []time.Duration
	for _, ls := range latencies {
		all = append(all, ls...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return float64(all[i]) / float64(time.Millisecond)
	}
	uploads := int64(*clients) * int64(*rounds)
	rep := Report{
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Clients:     *clients,
		Concurrency: *concurrency,
		Rounds:      *rounds,
		Shards:      stats.Shards,
		Classes:     *classes,
		Dim:         *dim,
		PoisonFrac:  *poisonFrac,
		Codecs:      mixNames,

		ElapsedSec:    elapsed.Seconds(),
		RoundsPerSec:  float64(*rounds) / elapsed.Seconds(),
		UploadsPerSec: float64(uploads) / elapsed.Seconds(),
		BytesPerRound: float64(stats.BytesReceived) / float64(*rounds),

		Uploads:     uploads,
		Accepted:    accepted.Load(),
		Quarantined: quarantined.Load(),
		Stale:       stale.Load(),
		Throttled:   throttled.Load(),
		Gone:        gone.Load(),
		Failed:      failed.Load(),

		Latency: LatencySummary{
			P50Ms: pct(0.50), P95Ms: pct(0.95), P99Ms: pct(0.99), MaxMs: pct(1.0),
		},
		Server: stats,
	}
	fmt.Printf("%d uploads in %.2fs: %.2f rounds/s, %.0f uploads/s\n",
		uploads, rep.ElapsedSec, rep.RoundsPerSec, rep.UploadsPerSec)
	fmt.Printf("accepted %d, quarantined %d, stale %d, throttled %d, closed-out %d, failed %d\n",
		rep.Accepted, rep.Quarantined, rep.Stale, rep.Throttled, rep.Gone, rep.Failed)
	fmt.Printf("upload latency p50 %.2fms p95 %.2fms p99 %.2fms max %.2fms\n",
		rep.Latency.P50Ms, rep.Latency.P95Ms, rep.Latency.P99Ms, rep.Latency.MaxMs)
	fmt.Printf("server: %.0f bytes/round, %d throttled (429), %d shard timeouts, %d partial commits\n",
		rep.BytesPerRound, stats.UpdatesThrottled, stats.ShardTimeouts, stats.PartialCommits)
	if rep.Failed > 0 {
		fmt.Printf("WARNING: %d uploads failed outright\n", rep.Failed)
	}

	if *out != "" {
		buf, merr := json.MarshalIndent(&rep, "", "  ")
		if merr != nil {
			return merr
		}
		buf = append(buf, '\n')
		if werr := os.WriteFile(*out, buf, 0o644); werr != nil {
			return werr
		}
		fmt.Println("wrote", *out)
	}
	return nil
}
