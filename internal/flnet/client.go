package flnet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fhdnn/internal/compress"
	"fhdnn/internal/fedcore"
	"fhdnn/internal/hdc"
	"fhdnn/internal/tensor"
)

// Client talks to a flnet.Server. The zero value is not usable; set
// BaseURL.
type Client struct {
	BaseURL string
	// ID, when set, is sent as the X-Fhdnn-Client header so the server
	// can deduplicate retried uploads within a round.
	ID string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Retry, when set, transparently retries transport failures and 5xx
	// responses on Round, FetchModel, and PushUpdate with exponential
	// backoff. nil performs exactly one attempt per call.
	Retry *RetryPolicy
	// Codec compresses the update inside its fedcore wire envelope; nil
	// means compress.Raw{}. It must be one of the codecs fedcore assigns a
	// wire id (raw, float16, int8, topk) — PushUpdate refuses any other.
	Codec compress.Codec

	// ep caches the request URLs and the ID header built from BaseURL and
	// ID; endpoints rebuilds it when either changes.
	ep atomic.Pointer[endpoints]
}

// endpoints are what a Client's requests share for one (BaseURL, ID):
// the URLs and the ClientHeader value. A Client keeps nothing that grows
// with the model: each PushUpdate encodes into a fresh body, because the
// transport may still be reading one after Do returns.
type endpoints struct {
	base, id     string
	round, model string
	update       string   // POST /v1/update up to its round number
	idHeader     []string // ClientHeader's value; nil without an ID
}

// endpoints returns the cached endpoints for the current BaseURL and ID,
// building them on the first call and after either changes.
func (c *Client) endpoints() *endpoints {
	if e := c.ep.Load(); e != nil && e.base == c.BaseURL && e.id == c.ID {
		return e
	}
	e := &endpoints{
		base:   c.BaseURL,
		id:     c.ID,
		round:  c.BaseURL + "/v1/round",
		model:  c.BaseURL + "/v1/model",
		update: c.BaseURL + "/v1/update?round=",
	}
	if c.ID != "" {
		e.idHeader = []string{c.ID}
	}
	c.ep.Store(e)
	return e
}

// envelopeContentType is the Content-Type value of every upload. Request
// headers are only read once built, so every request shares it.
var envelopeContentType = []string{EnvelopeContentType}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// RetryPolicy is an exponential-backoff-with-jitter schedule for the
// retryable failure classes: transport errors (connection refused, reset,
// truncated body) and 5xx responses. Terminal protocol answers — any 4xx,
// including 409 stale-round and 422 quarantine — are never retried; they
// would fail identically again. The zero value is 4 attempts from 50ms.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per call (default 4).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt (default 50ms);
	// each further attempt doubles it, up to 2s. Every sleep is the delay
	// times U[0.75, 1.25), decorrelating clients that fail in lockstep.
	BaseDelay time.Duration
}

// maxRetryDelay caps the doubling backoff of a RetryPolicy.
const maxRetryDelay = 2 * time.Second

func (p *RetryPolicy) attempts() int {
	if p.MaxAttempts > 0 {
		return p.MaxAttempts
	}
	return 4
}

// delay returns the jittered backoff before attempt (1 = first retry).
func (p *RetryPolicy) delay(attempt int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	d := base
	for i := 1; i < attempt; i++ {
		if d *= 2; d >= maxRetryDelay {
			d = maxRetryDelay
			break
		}
	}
	return time.Duration(float64(d) * (0.75 + float64(0.5*rand.Float64())))
}

// sleep waits the jittered backoff for the given retry — but never less
// than floor, the server's Retry-After hint when one was given — or
// returns early with ctx's error.
func (p *RetryPolicy) sleep(ctx context.Context, attempt int, floor time.Duration) error {
	d := p.delay(attempt)
	if floor > d {
		d = floor
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// HTTPError is a non-2xx protocol response that did not map to a more
// specific error type.
type HTTPError struct {
	Op         string
	StatusCode int
	Status     string
	Body       string
}

// Error implements error.
func (e *HTTPError) Error() string {
	return fmt.Sprintf("flnet: %s: server returned %s: %s", e.Op, e.Status, e.Body)
}

// Retryable classifies an error from Round, FetchModel, or PushUpdate:
// transport-level failures and 5xx responses are retryable; 4xx protocol
// answers (stale round, quarantine, gone, bad request) are terminal.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	var stale ErrStaleRound
	var quar ErrQuarantined
	if errors.As(err, &stale) || errors.As(err, &quar) {
		return false
	}
	var thr ErrThrottled
	if errors.As(err, &thr) {
		// Backpressure, not failure: the same bytes will be accepted once
		// the queue drains, so waiting and resending is correct.
		return true
	}
	var he *HTTPError
	if errors.As(err, &he) {
		return he.StatusCode >= 500
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	// Everything else — dial errors, resets, truncated bodies — is a
	// transport fault worth retrying.
	return true
}

// withRetry runs fn under the client's retry policy. fn must be safe to
// re-run (requests are rebuilt per attempt).
func (c *Client) withRetry(ctx context.Context, fn func() error) error {
	p := c.Retry
	if p == nil {
		return fn()
	}
	var err error
	for attempt := 1; ; attempt++ {
		err = fn()
		if err == nil || !Retryable(err) || attempt >= p.attempts() {
			return err
		}
		// A throttled upload carries the server's Retry-After hint; honor
		// it as a floor under the backoff so a fleet does not stampede the
		// aggregator the moment it reopens.
		var floor time.Duration
		var thr ErrThrottled
		if errors.As(err, &thr) {
			floor = thr.RetryAfter
		}
		if serr := p.sleep(ctx, attempt, floor); serr != nil {
			return serr
		}
	}
}

// RoundInfo is the JSON body of GET /v1/round: the server encodes it and
// the client decodes it.
type RoundInfo struct {
	Round          int  `json:"round"`
	UpdatesPending int  `json:"updatesPending"`
	MinUpdates     int  `json:"minUpdates"`
	Closed         bool `json:"closed"`
}

// Round fetches the current round state.
func (c *Client) Round(ctx context.Context) (RoundInfo, error) {
	var info RoundInfo
	err := c.withRetry(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.endpoints().round, nil)
		if err != nil {
			return fmt.Errorf("flnet: build round request: %w", err)
		}
		resp, err := c.http().Do(req)
		if err != nil {
			return fmt.Errorf("flnet: fetch round: %w", err)
		}
		defer drainClose(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return httpError("round", resp)
		}
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			return fmt.Errorf("flnet: decode round info: %w", err)
		}
		return nil
	})
	return info, err
}

// FetchModel downloads the global model and its round number.
func (c *Client) FetchModel(ctx context.Context) (*hdc.Model, int, error) {
	var m *hdc.Model
	var round int
	err := c.withRetry(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.endpoints().model, nil)
		if err != nil {
			return fmt.Errorf("flnet: build model request: %w", err)
		}
		resp, err := c.http().Do(req)
		if err != nil {
			return fmt.Errorf("flnet: fetch model: %w", err)
		}
		defer drainClose(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return httpError("model", resp)
		}
		round, err = strconv.Atoi(resp.Header.Get(RoundHeader))
		if err != nil {
			return fmt.Errorf("flnet: missing %s header", RoundHeader)
		}
		m, err = hdc.ReadModel(resp.Body)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	return m, round, nil
}

// ErrStaleRound is returned by PushUpdate when the server has already
// moved on; the caller should re-fetch the model and retrain.
type ErrStaleRound struct {
	Sent, Current int
}

// Error implements error.
func (e ErrStaleRound) Error() string {
	return fmt.Sprintf("flnet: update for round %d rejected, server at round %d", e.Sent, e.Current)
}

// ErrQuarantined is returned by PushUpdate when the server refused the
// payload as unsafe to aggregate (not a valid envelope, non-finite values
// or exploded norm).
// Resending the same bytes cannot succeed; the caller should retrain (or
// wait for the next round, where a fresh uplink transmission may come
// through clean).
type ErrQuarantined struct {
	Round  int
	Reason string
}

// Error implements error.
func (e ErrQuarantined) Error() string {
	return fmt.Sprintf("flnet: round %d update quarantined: %s", e.Round, e.Reason)
}

// ErrThrottled is returned by PushUpdate when the server answered 429:
// too many uploads are already waiting on the server's aggregator.
// The update is fine — resend it after RetryAfter (the server's
// Retry-After hint, zero if the server gave none). Under a RetryPolicy,
// PushUpdate retries this automatically, sleeping at least RetryAfter
// between attempts.
type ErrThrottled struct {
	Round      int
	RetryAfter time.Duration
}

// Error implements error.
func (e ErrThrottled) Error() string {
	return fmt.Sprintf("flnet: round %d update throttled, retry after %v", e.Round, e.RetryAfter)
}

// PushUpdate uploads a locally trained model for the given round as a
// fedcore wire envelope compressed with Codec. The model is encoded once:
// each retry attempt re-sends the same bytes.
func (c *Client) PushUpdate(ctx context.Context, round int, m *hdc.Model) error {
	codec := c.Codec
	if codec == nil {
		codec = compress.Raw{}
	}
	payload, err := fedcore.EncodeEnvelope(codec, m.Flat())
	if err != nil {
		return fmt.Errorf("flnet: encode update envelope: %w", err)
	}
	ep := c.endpoints()
	url := ep.update + strconv.Itoa(round)
	return c.withRetry(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
		if err != nil {
			return fmt.Errorf("flnet: build update request: %w", err)
		}
		req.Header["Content-Type"] = envelopeContentType
		if ep.idHeader != nil {
			req.Header[ClientHeader] = ep.idHeader
		}
		resp, err := c.http().Do(req)
		if err != nil {
			return fmt.Errorf("flnet: push update: %w", err)
		}
		defer drainClose(resp.Body)
		switch resp.StatusCode {
		case http.StatusAccepted:
			return nil
		case http.StatusConflict:
			current, _ := strconv.Atoi(resp.Header.Get(RoundHeader))
			return ErrStaleRound{Sent: round, Current: current}
		case http.StatusUnprocessableEntity:
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			return ErrQuarantined{Round: round, Reason: string(bytes.TrimSpace(body))}
		case http.StatusTooManyRequests:
			var after time.Duration
			if secs, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && secs > 0 {
				after = time.Duration(secs) * time.Second
			}
			return ErrThrottled{Round: round, RetryAfter: after}
		default:
			return httpError("update", resp)
		}
	})
}

// jitterDuration spreads d uniformly over [d/2, 3d/2).
func jitterDuration(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// drainLimit bounds how much of a response body drainClose reads.
const drainLimit = 1 << 20

// drainBufs recycles drainClose's read buffers.
var drainBufs = sync.Pool{New: func() any { return new([4096]byte) }}

// drainClose consumes up to drainLimit bytes of any unread remainder of
// an HTTP response body before closing it, so the underlying keep-alive
// connection can be reused instead of being torn down after every
// request. It reads into a pooled buffer: io.Copy through an
// io.LimitReader would allocate the reader for every response.
func drainClose(body io.ReadCloser) {
	buf := drainBufs.Get().(*[4096]byte)
	for left := drainLimit; left > 0; {
		n, err := body.Read(buf[:min(len(buf), left)])
		left -= n
		if err != nil {
			break
		}
	}
	drainBufs.Put(buf)
	_ = body.Close()
}

func httpError(op string, resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return &HTTPError{
		Op:         op,
		StatusCode: resp.StatusCode,
		Status:     resp.Status,
		Body:       string(bytes.TrimSpace(body)),
	}
}

// failureBudget is how many consecutive failed interactions (after the
// Client's own per-call retries) Participate tolerates before giving up.
// Progress of any kind resets the count.
const failureBudget = 8

// LocalTrainer is the client-side training loop: it holds this device's
// pre-encoded hypervectors and participates in rounds until the server
// closes. Each round runs the paper's local update on the fetched model,
// hdc.Model.LocalUpdate with the fixed step rule (one-shot bundling on
// first participation, then up to Epochs refinement epochs).
type LocalTrainer struct {
	Client *Client
	// Encoded holds one hypervector per row and Labels that row's class.
	// The server's model must have Encoded's row length as its D and a
	// class for every label; Participate checks each fetched model.
	Encoded *tensor.Tensor
	Labels  []int
	Epochs  int
	// Poll is the round-polling interval (default 10 ms; tests and
	// loopback deployments want it small).
	Poll time.Duration
	// Tamper, when set, mutates the locally trained model just before
	// each upload; global is the model the client downloaded this round,
	// the reference a delta-level attack corrupts against. It is the one
	// pre-upload hook: a Byzantine client is an honest trainer whose
	// Tamper corrupts the update (see internal/faults.Poisoner), and a
	// lossy uplink is one whose Tamper passes it through a
	// channel.Channel, as the -poison and -loss/-snr flags of
	// cmd/fhdnn-client do.
	Tamper func(round int, local, global *hdc.Model)

	bundledOnce bool
}

// checkModel verifies that a model fetched from the server fits this
// device's data. The server chooses K and D; training on a model of
// another shape would slice Encoded by the wrong row length and index
// prototypes the model does not have.
func (lt *LocalTrainer) checkModel(global *hdc.Model) error {
	if d := lt.Encoded.Dim(1); global.D != d {
		return fmt.Errorf("flnet: participate: server model has D=%d, local hypervectors have D=%d", global.D, d)
	}
	for _, y := range lt.Labels {
		if y < 0 || y >= global.K {
			return fmt.Errorf("flnet: participate: local label %d is outside the server model's %d classes", y, global.K)
		}
	}
	return nil
}

// Participate runs rounds until the server closes or ctx is done. It
// returns the number of rounds this client contributed to.
//
// A fetched model whose D differs from Encoded's row length, or whose K
// does not cover every entry of Labels, ends participation at once with
// a descriptive error: no retry and no upload, since a misconfigured
// peer does not heal.
//
// The loop is built for unreliable deployments: transient transport
// errors and 5xx responses are absorbed (backing off through up to
// failureBudget = 8 consecutive failures), a quarantined upload skips the
// round rather than aborting, a stale-round rejection refetches and
// retrains, a 410 Gone is a clean finish, and a server restart (round
// number moving backwards) resets the client's round tracking so it
// rejoins from the server's new epoch.
func (lt *LocalTrainer) Participate(ctx context.Context) (int, error) {
	poll := lt.Poll
	if poll <= 0 {
		poll = 10 * time.Millisecond
	}
	contributed := 0
	lastRound := 0
	failures := 0

	// absorb decides what a failed interaction means: stop ends
	// participation with err (nil for a 410, training finished while we
	// were mid-interaction); otherwise it backs off and the loop goes on.
	absorb := func(err error) (stop bool, _ error) {
		if ctx.Err() != nil {
			return true, err
		}
		var he *HTTPError
		if errors.As(err, &he) && he.StatusCode == http.StatusGone {
			return true, nil
		}
		if !Retryable(err) {
			return true, err
		}
		failures++
		if failures > failureBudget {
			return true, fmt.Errorf("flnet: participate: %d consecutive failures, last: %w", failures, err)
		}
		t := time.NewTimer(jitterDuration(poll * time.Duration(failures)))
		defer t.Stop()
		select {
		case <-ctx.Done():
		case <-t.C:
		}
		return false, nil
	}

	for {
		info, err := lt.Client.Round(ctx)
		if err != nil {
			if stop, err := absorb(err); stop {
				return contributed, err
			}
			continue
		}
		failures = 0
		if info.Closed {
			return contributed, nil
		}
		if info.Round < lastRound {
			// The server restarted (or was replaced) and its round
			// counter rewound; rejoin from its current epoch.
			lastRound = 0
		}
		if info.Round == lastRound {
			// Already contributed this round; sleep one jittered poll
			// and re-enter the loop (rather than waiting for a target
			// round, which could become unreachable if the server
			// restarts and its round counter rewinds).
			select {
			case <-ctx.Done():
				return contributed, ctx.Err()
			case <-time.After(jitterDuration(poll)):
			}
			continue
		}
		global, round, err := lt.Client.FetchModel(ctx)
		if err != nil {
			if stop, err := absorb(err); stop {
				return contributed, err
			}
			continue
		}
		failures = 0
		if err := lt.checkModel(global); err != nil {
			return contributed, err
		}
		local := global.Clone()
		local.LocalUpdate(lt.Encoded, lt.Labels, nil, &lt.bundledOnce, lt.Epochs, 0)
		if lt.Tamper != nil {
			lt.Tamper(round, local, global)
		}
		err = lt.Client.PushUpdate(ctx, round, local)
		switch err.(type) {
		case nil:
			contributed++
			lastRound = round
			failures = 0
		case ErrStaleRound:
			// raced with the round closing; retry with the new model
			continue
		case ErrQuarantined:
			// the uplink mangled this transmission beyond repair; sit
			// out the round and try again with a fresh transmission
			lastRound = round
			continue
		default:
			if stop, err := absorb(err); stop {
				return contributed, err
			}
			continue
		}
	}
}
