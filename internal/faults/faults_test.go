package faults

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// payload is what the healthy test server always answers.
const payload = "0123456789abcdef0123456789abcdef0123456789abcdef"

func healthyServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, payload)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestTransportFailRateOne(t *testing.T) {
	ts := healthyServer(t)
	tr := NewTransport(Config{FailRate: 1, Seed: 1})
	client := &http.Client{Transport: tr}
	for i := 0; i < 5; i++ {
		_, err := client.Get(ts.URL)
		if err == nil {
			t.Fatal("request should have failed")
		}
		if !errors.Is(err, ErrInjected) && !strings.Contains(err.Error(), "injected") {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	st := tr.Stats()
	if st.Requests != 5 || st.Failed != 5 {
		t.Fatalf("stats %+v, want 5 requests all failed", st)
	}
}

func TestTransportClean(t *testing.T) {
	ts := healthyServer(t)
	tr := NewTransport(Config{Seed: 1})
	client := &http.Client{Transport: tr}
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || string(body) != payload {
		t.Fatalf("body %q err %v", body, err)
	}
}

func TestTransport5xxBurst(t *testing.T) {
	ts := healthyServer(t)
	tr := NewTransport(Config{Error5xxRate: 1, BurstLen: 3, Seed: 1})
	client := &http.Client{Transport: tr}
	for i := 0; i < 4; i++ {
		resp, err := client.Get(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("request %d: status %d, want 503", i, resp.StatusCode)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if st := tr.Stats(); st.Injected5x != 4 {
		t.Fatalf("stats %+v, want 4 injected 5xx", st)
	}
}

func TestTransportBurstThenRecovers(t *testing.T) {
	// One guaranteed burst of 2, then zero probability of a new burst:
	// request 1 and 2 see 503, request 3 reaches the server.
	ts := healthyServer(t)
	tr := NewTransport(Config{Error5xxRate: 1, BurstLen: 2, Seed: 1})
	client := &http.Client{Transport: tr}
	codes := make([]int, 0, 3)
	for i := 0; i < 2; i++ {
		resp, err := client.Get(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		codes = append(codes, resp.StatusCode)
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	tr.in.mu.Lock()
	tr.in.cfg.Error5xxRate = 0 // storm passes
	tr.in.mu.Unlock()
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	codes = append(codes, resp.StatusCode)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	want := []int{503, 503, 200}
	for i, c := range codes {
		if c != want[i] {
			t.Fatalf("codes %v, want %v", codes, want)
		}
	}
}

func TestTransportTruncation(t *testing.T) {
	ts := healthyServer(t)
	tr := NewTransport(Config{TruncateRate: 1, Seed: 1})
	client := &http.Client{Transport: tr}
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if len(body) >= len(payload) {
		t.Fatalf("body not truncated: got %d bytes of %d", len(body), len(payload))
	}
	if st := tr.Stats(); st.Truncated != 1 {
		t.Fatalf("stats %+v, want 1 truncation", st)
	}
}

func TestTransportLatency(t *testing.T) {
	ts := healthyServer(t)
	tr := NewTransport(Config{Latency: 30 * time.Millisecond, Seed: 1})
	client := &http.Client{Transport: tr}
	start := time.Now()
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("request completed in %v, latency not injected", elapsed)
	}
}

func TestTransportDeterministicAcrossSeeds(t *testing.T) {
	// Same seed, same request sequence -> identical fault decisions.
	ts := healthyServer(t)
	run := func(seed int64) []bool {
		tr := NewTransport(Config{FailRate: 0.5, Seed: seed})
		client := &http.Client{Transport: tr}
		outcomes := make([]bool, 0, 32)
		for i := 0; i < 32; i++ {
			resp, err := client.Get(ts.URL)
			outcomes = append(outcomes, err == nil)
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
		return outcomes
	}
	a, b, c := run(7), run(7), run(8)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed diverged:\n%v\n%v", a, b)
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical 32-request outcome (suspicious)")
	}
}

func TestCrashSchedule(t *testing.T) {
	cs := CrashSchedule{1: 2, 3: 1}
	cases := []struct {
		client, round int
		dead          bool
	}{
		{0, 1, false}, {0, 99, false},
		{1, 1, false}, {1, 2, true}, {1, 3, true},
		{3, 1, true},
	}
	for _, c := range cases {
		if got := cs.ShouldCrash(c.client, c.round); got != c.dead {
			t.Fatalf("ShouldCrash(%d,%d) = %v, want %v", c.client, c.round, got, c.dead)
		}
	}
	if s := cs.Survivors(8); s != 6 {
		t.Fatalf("Survivors(8) = %d, want 6", s)
	}
}
