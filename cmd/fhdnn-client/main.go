// Command fhdnn-client is one federated FHDnn edge client: it derives the
// shared frozen pipeline (feature extractor + HD encoder) from the common
// seed, encodes its local data, and participates in rounds against an
// fhdnn-server — optionally through a simulated lossy uplink (-loss,
// -snr), applied to each trained model just before it is uploaded.
//
// Local data is synthetic in this reproduction (see DESIGN.md): each
// client generates its shard of the CIFAR-like dataset from the shared
// data seed plus its client id, which mirrors naturally partitioned
// sensors observing the same world.
//
// Requests are retried with exponential backoff (-retries, -retry-base),
// and the -fault-* flags inject deterministic transport chaos (connection
// failures, truncated bodies, latency) for rehearsing unreliable links.
// -codec picks the compression inside the upload's wire envelope ("raw",
// "float16", "int8", "topk" or "topk:0.25").
// -poison turns the client Byzantine: it trains honestly, then corrupts
// the update just before upload ("signflip", "scale:-2", "noise:1",
// "drift:2") — the adversarial half of the robust-aggregation story,
// meant to be pointed at a server running -aggregator median or trimmed.
//
// Usage:
//
//	fhdnn-client -server http://127.0.0.1:8080 -id 0 -codec int8 -loss 0.2
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"time"

	"fhdnn/internal/channel"
	"fhdnn/internal/core"
	"fhdnn/internal/dataset"
	"fhdnn/internal/faults"
	"fhdnn/internal/fedcore"
	"fhdnn/internal/flnet"
	"fhdnn/internal/hdc"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fhdnn-client:", err)
		os.Exit(1)
	}
}

func run() error {
	server := flag.String("server", "http://127.0.0.1:8080", "aggregation server URL")
	id := flag.Int("id", 0, "client id (selects this client's data shard)")
	seed := flag.Int64("seed", 1, "shared pipeline seed (must match all clients)")
	clients := flag.Int("clients", 10, "total number of clients (for partitioning)")
	imgSize := flag.Int("img", 8, "image size of the synthetic dataset")
	dim := flag.Int("dim", 10000, "hypervector dimensionality (must match the server)")
	epochs := flag.Int("epochs", 2, "local refinement epochs E")
	perClass := flag.Int("per-class", 40, "training examples per class (whole federation)")
	codecName := flag.String("codec", "raw", "compress uploads with this codec (raw, float16, int8, topk[:frac])")
	poison := flag.String("poison", "", "turn this client Byzantine: signflip, scale:L, noise:S, drift:L (empty = honest)")
	loss := flag.Float64("loss", 0, "simulated uplink packet loss rate")
	snr := flag.Float64("snr", 0, "simulated uplink AWGN SNR in dB (0 = off)")
	timeout := flag.Duration("timeout", 10*time.Minute, "give up after this long")
	retries := flag.Int("retries", 4, "attempts per request before giving up (1 = no retry)")
	retryBase := flag.Duration("retry-base", 50*time.Millisecond, "initial retry backoff")
	faultRate := flag.Float64("fault-rate", 0, "inject transport failures for this fraction of requests")
	faultTruncate := flag.Float64("fault-truncate", 0, "truncate this fraction of response bodies")
	faultLatency := flag.Duration("fault-latency", 0, "inject this much latency per request")
	faultSeed := flag.Int64("fault-seed", 0, "seed for injected faults (default: derived from -seed and -id)")
	flag.Parse()

	if *id < 0 || *id >= *clients {
		return fmt.Errorf("client id %d out of range [0,%d)", *id, *clients)
	}

	// Shared frozen pipeline.
	train, _ := dataset.GenerateImages(dataset.CIFAR10Like(*imgSize, *perClass, 1, *seed))
	part := dataset.PartitionIID(train.Len(), *clients, rand.New(rand.NewSource(*seed)))
	extractor := core.NewRandomConvExtractor(*seed, train.X.Dim(1), 8, *imgSize)
	fhd := core.New(extractor, core.Config{
		HDDim: *dim, NumClasses: train.NumClasses, Seed: *seed, Binarize: true})

	// This client's shard, encoded once.
	idx := part[*id]
	shard := train.Subset(idx)
	encoded := fhd.EncodeDataset(shard)
	log.Printf("client %d: %d local examples, %d-dim hypervectors", *id, shard.Len(), *dim)

	var uplink channel.Channel
	switch {
	case *loss > 0:
		uplink = channel.PacketLoss{Rate: *loss}
	case *snr > 0:
		uplink = channel.AWGN{SNRdB: *snr}
	}
	codec, err := fedcore.ParseCodec(*codecName)
	if err != nil {
		return err
	}
	cl := &flnet.Client{
		BaseURL: *server,
		ID:      fmt.Sprintf("client-%d", *id),
		Codec:   codec,
	}
	params := train.NumClasses * *dim
	log.Printf("client %d: uploading %s envelopes (%d bytes/update vs %d raw float32)",
		*id, codec.Name(), fedcore.WireBytes(codec, params), 4*params)
	if *retries > 1 {
		cl.Retry = &flnet.RetryPolicy{MaxAttempts: *retries, BaseDelay: *retryBase}
	}
	if *faultRate > 0 || *faultTruncate > 0 || *faultLatency > 0 {
		fseed := *faultSeed
		if fseed == 0 {
			fseed = *seed<<16 + int64(*id)
		}
		ft := faults.NewTransport(faults.Config{
			FailRate:     *faultRate,
			TruncateRate: *faultTruncate,
			Latency:      *faultLatency,
			Seed:         fseed,
		})
		cl.HTTPClient = &http.Client{Transport: ft}
		log.Printf("client %d: fault injection armed (fail %.0f%%, truncate %.0f%%, +%v latency, seed %d)",
			*id, *faultRate*100, *faultTruncate*100, *faultLatency, fseed)
		defer func() {
			st := ft.Stats()
			log.Printf("client %d: fault injection: %d requests, %d failed, %d truncated",
				*id, st.Requests, st.Failed, st.Truncated)
		}()
	}

	lt := &flnet.LocalTrainer{
		Client:  cl,
		Encoded: encoded,
		Labels:  shard.Labels,
		Epochs:  *epochs,
		Poll:    200 * time.Millisecond,
	}
	// The upload hook: a poisoner corrupts the trained model first, then
	// the simulated uplink garbles what the radio sends.
	var attacker *faults.Poisoner
	if *poison != "" {
		if attacker, err = faults.ParseAttack(*poison); err != nil {
			return err
		}
		attacker.Seed = *seed
		log.Printf("client %d: BYZANTINE — poisoning every upload with %s", *id, attacker)
	}
	var rng *rand.Rand
	if uplink != nil {
		rng = rand.New(rand.NewSource(*seed + int64(*id)))
		log.Printf("client %d: uplink %s", *id, uplink.Name())
	}
	if attacker != nil || uplink != nil {
		cid := *id
		lt.Tamper = func(round int, local, global *hdc.Model) {
			if attacker != nil {
				attacker.Corrupt(local.Flat(), global.Flat(), round, cid)
			}
			if uplink != nil {
				copy(local.Flat(), uplink.Transmit(local.Flat(), rng))
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	contributed, err := lt.Participate(ctx)
	if err != nil {
		return err
	}
	log.Printf("client %d: contributed to %d rounds, server closed", *id, contributed)
	return nil
}
