// Networked federated learning under faults: start the flnet aggregation
// server on a loopback port and run eight FHDnn clients against it over
// real HTTP — each round the clients download the global HD model, train
// locally (one-shot bundling + refinement), and upload their prototypes
// as int8-compressed wire envelopes (~4x fewer uplink bytes than raw
// float32) through a simulated
// 20% packet-loss uplink. On top of the lossy radio,
// every client's HTTP transport injects 30% connection failures plus
// truncated responses (internal/faults), one client dies after round 2,
// and a poisoner submits a NaN update each round; the server's round
// deadline, update quarantine, and the clients' retry loops keep training
// on track anyway. This is the deployment shape of the paper (server
// broadcast assumed reliable, client uplink lossy), executed on the
// actual wire protocol with the failure modes of a real AIoT fleet.
//
// Run with: go run ./examples/network
//
// The Byzantine variant adds model poisoning on top of the channel
// chaos: -poison arms a fraction (-poisoners) of the fleet with an
// attack from internal/faults (they train honestly, then corrupt the
// upload), and -aggregator switches the server's commit rule to a
// robust policy. Under everything at once — packet loss, transport
// faults, a crash, and 40% colluding unlearners — the mean-based bundle
// collapses to chance while the median keeps the model several times
// above it (clean separations live in the flnet chaos tests and
// EXPERIMENTS.md; this demo is the kitchen sink):
//
//	go run ./examples/network -poison scale:-2 -poisoners 0.4 -aggregator median
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"fhdnn/internal/channel"
	"fhdnn/internal/compress"
	"fhdnn/internal/core"
	"fhdnn/internal/dataset"
	"fhdnn/internal/faults"
	"fhdnn/internal/fedcore"
	"fhdnn/internal/flnet"
	"fhdnn/internal/hdc"
	"fhdnn/internal/tensor"
)

func main() {
	aggSpec := flag.String("aggregator", "bundle", "server commit rule: bundle, fedavg, median, trimmed[:frac], clip:bound[:inner]")
	poisonSpec := flag.String("poison", "", "arm colluding clients with this attack: signflip, scale:L, noise:S, drift:L")
	poisonFrac := flag.Float64("poisoners", 0.4, "fraction of clients that collude (only with -poison)")
	flag.Parse()

	const (
		seed       = 21
		numClients = 8
		rounds     = 6
		imgSize    = 8
		hdDim      = 2048
		failRate   = 0.3
	)
	crash := faults.CrashSchedule{3: 3} // client 3 dies during round 3

	agg, err := fedcore.ParseAggregator(*aggSpec)
	if err != nil {
		log.Fatal(err)
	}
	var attacker *faults.Poisoner
	colluders := map[int]bool{}
	if *poisonSpec != "" {
		attacker, err = faults.ParseAttack(*poisonSpec)
		if err != nil {
			log.Fatal(err)
		}
		attacker.Seed = seed
		colluders = faults.Colluders(seed, numClients, *poisonFrac)
	}

	// Data and the frozen pipeline, shared by seed.
	train, test := dataset.GenerateImages(dataset.CIFAR10Like(imgSize, 80, 12, seed))
	part := dataset.PartitionIID(train.Len(), numClients, rand.New(rand.NewSource(seed)))
	extractor := core.NewRandomConvExtractor(seed, 3, 8, imgSize)
	fhd := core.New(extractor, core.Config{HDDim: hdDim, NumClasses: 10, Seed: seed, Binarize: true})
	encoded := fhd.EncodeDataset(train)
	testEnc := fhd.EncodeDataset(test)

	// Aggregation server on loopback. MinUpdates asks for everyone, but
	// the deadline closes a round with whoever showed up, so the crashed
	// client cannot stall the federation.
	srv, err := flnet.NewServer(flnet.ServerConfig{
		NumClasses: 10, Dim: hdDim, MinUpdates: numClients, MaxRounds: rounds,
		RoundDeadline: 2 * time.Second, MaxUpdateNorm: 1e9,
		Aggregator: agg,
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	// The demo's long-running HTTP serve loop.
	go func() {
		if err := httpSrv.Serve(ln); err != http.ErrServerClosed {
			log.Println("server:", err)
		}
	}()
	defer func() { _ = httpSrv.Close() }()
	baseURL := "http://" + ln.Addr().String()
	fmt.Printf("aggregation server at %s: %d clients, %d rounds, %s aggregation, 20%% packet-loss uplink,\n",
		baseURL, numClients, rounds, fedcore.AggregatorName(agg))
	fmt.Printf("%.0f%% injected transport failures, client 3 crashes in round 3, NaN poisoner active\n", failRate*100.0)
	if attacker != nil {
		ids := make([]int, 0, len(colluders))
		for id := 0; id < numClients; id++ {
			if colluders[id] {
				ids = append(ids, id)
			}
		}
		fmt.Printf("Byzantine colluders %v poisoning every upload with %s\n", ids, attacker)
	}
	fmt.Println()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	d := hdDim
	for i := 0; i < numClients; i++ {
		idx := part[i]
		shard := tensor.New(len(idx), d)
		labels := make([]int, len(idx))
		for bi, j := range idx {
			copy(shard.Data()[bi*d:(bi+1)*d], encoded.Data()[j*d:(j+1)*d])
			labels[bi] = train.Labels[j]
		}
		wg.Add(1)
		// One concurrent client actor per shard, joined through wg.
		go func(i int, shard *tensor.Tensor, labels []int) {
			defer wg.Done()
			// Every request from this client runs the gauntlet: injected
			// connection failures and truncated bodies, absorbed by the
			// client's exponential-backoff retry policy.
			cl := &flnet.Client{
				BaseURL: baseURL,
				ID:      fmt.Sprintf("edge-%d", i),
				HTTPClient: &http.Client{Transport: faults.NewTransport(faults.Config{
					FailRate:     failRate,
					TruncateRate: 0.1,
					Seed:         int64(seed + 100*i),
				})},
				Retry: &flnet.RetryPolicy{MaxAttempts: 6, BaseDelay: 5 * time.Millisecond},
				Codec: compress.Int8{}, // int8 wire envelopes
			}
			clientCtx := ctx
			if dieRound, dies := crash[i]; dies {
				// a crashing client simply stops participating mid-round
				var die context.CancelFunc
				clientCtx, die = context.WithCancel(ctx)
				defer die()
				// Crash-trigger watcher; it exits with its client context.
				go func() {
					c := &flnet.Client{BaseURL: baseURL}
					for {
						info, err := c.Round(ctx)
						if err == nil && (info.Round >= dieRound || info.Closed) {
							die()
							return
						}
						time.Sleep(5 * time.Millisecond)
					}
				}()
			}
			lt := &flnet.LocalTrainer{
				Client:  cl,
				Encoded: shard,
				Labels:  labels,
				Epochs:  2,
				Poll:    5 * time.Millisecond,
			}
			// Just before each upload a colluder poisons its model, and
			// then the lossy radio drops 20% of the packets.
			uplink, rng := channel.PacketLoss{Rate: 0.2}, rand.New(rand.NewSource(int64(seed+i)))
			lt.Tamper = func(round int, local, global *hdc.Model) {
				if attacker != nil && colluders[i] {
					attacker.Corrupt(local.Flat(), global.Flat(), round, i)
				}
				copy(local.Flat(), uplink.Transmit(local.Flat(), rng))
			}
			n, err := lt.Participate(clientCtx)
			if err != nil && !errors.Is(err, context.Canceled) {
				log.Printf("client %d: %v", i, err)
				return
			}
			if _, dies := crash[i]; dies {
				fmt.Printf("client %d crashed after contributing to %d rounds\n", i, n)
			} else {
				fmt.Printf("client %d contributed to %d rounds\n", i, n)
			}
		}(i, shard, labels)
	}

	// A poisoner pushes a NaN update every round; the quarantine gate
	// must keep every one of them out of the global model.
	wg.Add(1)
	// The poisoner actor, joined through wg.
	go func() {
		defer wg.Done()
		cl := &flnet.Client{BaseURL: baseURL, ID: "poisoner"}
		last := 0
		for ctx.Err() == nil {
			info, err := cl.Round(ctx)
			if err != nil || info.Closed {
				return
			}
			if info.Round != last {
				poison := hdc.NewModel(10, hdDim)
				poison.Flat()[0] = float32(math.NaN())
				if err := cl.PushUpdate(ctx, info.Round, poison); err != nil {
					var q flnet.ErrQuarantined
					if errors.As(err, &q) {
						last = info.Round
					}
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Progress monitor; it signals completion through done.
	done := make(chan struct{})
	go func() {
		defer close(done)
		c := &flnet.Client{BaseURL: baseURL}
		last := 0
		for {
			info, err := c.Round(ctx)
			if err != nil {
				return
			}
			if info.Round != last {
				model, _ := srv.Model()
				fmt.Printf("  round %d starts, global accuracy so far: %.3f\n",
					info.Round, model.Accuracy(testEnc, test.Labels))
				last = info.Round
			}
			if info.Closed {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	wg.Wait()
	<-done
	global, _ := srv.Model()
	st := srv.Stats()
	fmt.Printf("\nfinal global accuracy on held-out data: %.3f\n",
		global.Accuracy(testEnc, test.Labels))
	rawWire := 4 * 10 * hdDim
	int8Wire := fedcore.WireBytes(compress.Int8{}, 10*hdDim)
	fmt.Printf("per-update wire size: %d KB as int8 envelope vs %d KB raw float32 (%.1fx smaller)\n",
		int8Wire/1024, rawWire/1024, float64(rawWire)/float64(int8Wire))
	fmt.Printf("server stats: %d accepted (by codec: %v), %d quarantined (by reason: %v), %d duplicates, %d stale/late, %d deadline-forced rounds, %d KB received\n",
		st.UpdatesAccepted, st.UpdatesByCodec, st.UpdatesQuarantined, st.QuarantinedByReason,
		st.DuplicateUpdates, st.UpdatesRejected, st.RoundsForcedByDeadline, st.BytesReceived/1024)
	if st.UpdatesClipped > 0 {
		fmt.Printf("updates norm-clipped by the %s policy: %d\n", st.Aggregator, st.UpdatesClipped)
	}
}
