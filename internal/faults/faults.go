// Package faults injects deterministic transport- and server-level
// failures for chaos-testing the federated wire protocol (package flnet).
// Real AIoT deployments see connection refusals, latency spikes,
// truncated responses, and overloaded aggregators as the normal case, not
// the exception; this package reproduces those conditions on demand, with
// all randomness derived from a seed so a failing chaos run can be
// replayed exactly.
//
// The two pieces:
//
//   - Transport: an http.RoundTripper wrapper injecting client-observed
//     faults (refused connections, latency, 5xx bursts, truncated bodies).
//   - CrashSchedule: which clients die during which round, for simulating
//     partial participation.
package faults

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"
)

// ErrInjected is the sentinel wrapped by all transport-level failures
// this package fabricates, so tests can distinguish injected faults from
// real ones.
var ErrInjected = errors.New("faults: injected failure")

// Config sets the failure mix. All probabilities are per request in
// [0, 1]; zero values disable that fault class.
type Config struct {
	// FailRate is the probability a request dies at the transport layer
	// (as if the connection were refused or reset) without ever reaching
	// the server.
	FailRate float64
	// Error5xxRate is the probability a request triggers a burst of
	// BurstLen synthesized 503 responses (the aggregator "overloaded").
	Error5xxRate float64
	// BurstLen is how many consecutive requests a 5xx burst consumes
	// (default 1).
	BurstLen int
	// TruncateRate is the probability a successful response body is cut
	// off mid-stream.
	TruncateRate float64
	// Latency is added to every request before any other fault fires.
	Latency time.Duration
	// Seed makes the fault sequence deterministic. Two injectors with
	// the same seed and the same request sequence make identical
	// decisions.
	Seed int64
}

// Stats counts what an injector actually did.
type Stats struct {
	Requests   int64 `json:"requests"`
	Failed     int64 `json:"failed"`
	Injected5x int64 `json:"injected5xx"`
	Truncated  int64 `json:"truncated"`
}

// injector is the decision engine behind Transport.
type injector struct {
	cfg Config

	mu        sync.Mutex
	rng       *rand.Rand
	burstLeft int
	stats     Stats
}

func newInjector(cfg Config) *injector {
	return &injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// verdict is one request's fate, decided atomically under the lock so
// concurrent requests still consume the seeded stream one at a time.
type verdict struct {
	delay    time.Duration
	fail     bool
	serve5xx bool
	truncate bool
}

func (in *injector) decide() verdict {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Requests++
	v := verdict{delay: in.cfg.Latency}
	if in.burstLeft > 0 {
		in.burstLeft--
		in.stats.Injected5x++
		v.serve5xx = true
		return v
	}
	if in.cfg.FailRate > 0 && in.rng.Float64() < in.cfg.FailRate {
		in.stats.Failed++
		v.fail = true
		return v
	}
	if in.cfg.Error5xxRate > 0 && in.rng.Float64() < in.cfg.Error5xxRate {
		burst := in.cfg.BurstLen
		if burst <= 0 {
			burst = 1
		}
		in.burstLeft = burst - 1
		in.stats.Injected5x++
		v.serve5xx = true
		return v
	}
	if in.cfg.TruncateRate > 0 && in.rng.Float64() < in.cfg.TruncateRate {
		in.stats.Truncated++
		v.truncate = true
	}
	return v
}

func (in *injector) snapshot() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// Transport is a fault-injecting http.RoundTripper. Wrap it around a real
// transport and hand it to an http.Client to make every request from that
// client subject to the configured failure mix.
type Transport struct {
	in *injector
	// Base is the transport that performs surviving requests
	// (default http.DefaultTransport).
	Base http.RoundTripper
}

// NewTransport builds a fault-injecting transport over
// http.DefaultTransport.
func NewTransport(cfg Config) *Transport {
	return &Transport{in: newInjector(cfg)}
}

// Stats reports what the transport injected so far.
func (t *Transport) Stats() Stats { return t.in.snapshot() }

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	v := t.in.decide()
	if v.delay > 0 {
		select {
		case <-req.Context().Done():
			closeBody(req)
			return nil, req.Context().Err()
		case <-time.After(v.delay):
		}
	}
	if v.fail {
		closeBody(req)
		return nil, fmt.Errorf("%w: connection refused (%s %s)", ErrInjected, req.Method, req.URL.Path)
	}
	if v.serve5xx {
		closeBody(req)
		return synthesized503(req), nil
	}
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	resp, err := base.RoundTrip(req)
	if err != nil || !v.truncate || resp.Body == nil {
		return resp, err
	}
	// Cut the body roughly in half (at least one byte short) so the
	// reader sees an unexpected EOF mid-payload.
	n := resp.ContentLength / 2
	if resp.ContentLength <= 0 {
		n = 16
	}
	resp.Body = &truncatedBody{r: io.LimitReader(resp.Body, n), c: resp.Body}
	resp.ContentLength = -1
	return resp, nil
}

// truncatedBody yields only a prefix of the real body and, on Close,
// closes the underlying connection-backed body (discarding the rest, so
// the poisoned connection is not reused).
type truncatedBody struct {
	r io.Reader
	c io.Closer
}

func (b *truncatedBody) Read(p []byte) (int, error) { return b.r.Read(p) }
func (b *truncatedBody) Close() error               { return b.c.Close() }

func closeBody(req *http.Request) {
	if req.Body != nil {
		_, _ = io.Copy(io.Discard, io.LimitReader(req.Body, 1<<20))
		_ = req.Body.Close()
	}
}

func synthesized503(req *http.Request) *http.Response {
	const body = "faults: injected 503 service unavailable"
	return &http.Response{
		Status:        "503 Service Unavailable",
		StatusCode:    http.StatusServiceUnavailable,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": []string{"text/plain"}},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// CrashSchedule maps a client index to the round during which that client
// crashes: the client participates normally through round r-1 and dies
// mid-round r (after downloading the model, before its update lands).
type CrashSchedule map[int]int

// ShouldCrash reports whether the given client is dead by the given
// round.
func (cs CrashSchedule) ShouldCrash(client, round int) bool {
	r, ok := cs[client]
	return ok && round >= r
}

// Survivors returns how many of n clients are never scheduled to crash.
func (cs CrashSchedule) Survivors(n int) int {
	alive := 0
	for i := 0; i < n; i++ {
		if _, dead := cs[i]; !dead {
			alive++
		}
	}
	return alive
}
