package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"time"
)

// Top-level request classes. Every op the closed loop issues is exactly one
// of these; attempted and failed counts are per op.
const (
	classJob   = "job"   // POST /v1/jobs until the full spanner body is read
	classDelta = "delta" // POST /v1/sessions/{id}/deltas
	classRead  = "read"  // GET /v1/sessions/{id}/spanner
	classCross = "cross" // POST /v1/jobs with a session's current graph inline
)

// op is one closed-loop request and its outcome. A job op also records its
// submit (POST round trip) and read (spanner GET) parts.
type op struct {
	class  string
	start  time.Time
	lat    time.Duration
	submit time.Duration
	read   time.Duration
	err    string // non-empty: failed, whatever its latency
	traced bool   // issued in the traced phase of a --trace 1 run
	noisy  bool   // started in a tick with host CPU steal (see steal.go)
}

func (o *op) failed() bool { return o.err != "" }

// fail marks the op failed, keeping the first reason.
func (o *op) fail(format string, args ...any) {
	if o.err == "" {
		o.err = fmt.Sprintf(format, args...)
	}
}

// samples collects one latency class: successes plus a count of failures,
// which rank above every success.
type samples struct {
	ok     []time.Duration
	failed int
}

func (s *samples) add(d time.Duration, failed bool) {
	if failed {
		s.failed++
		return
	}
	s.ok = append(s.ok, d)
}

func (s *samples) n() int { return len(s.ok) + s.failed }

// quantile returns the nearest-rank q-quantile in milliseconds, with failed
// samples ranked slower than every success. A rank that lands on a failure
// reads as capMS (the window length): the op missed every latency limit. It
// also returns how many samples rank beyond the quantile.
func (s *samples) quantile(q, capMS float64) (ms float64, beyond int) {
	n := s.n()
	if n == 0 {
		return 0, 0
	}
	sort.Slice(s.ok, func(i, j int) bool { return s.ok[i] < s.ok[j] })
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s.ok) {
		return capMS, n - rank
	}
	return durMS(s.ok[rank-1]), n - rank
}

func durMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func durUS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// median returns the middle value of xs (0 for none); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// pct returns the nearest-rank q-quantile of xs (0 for none); xs is sorted
// in place.
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// newClient returns an HTTP client that keeps one keep-alive connection to
// the server, like one ftserve caller waiting on its own answers. rt wraps
// the transport (tests tamper with answers there); nil leaves it alone.
func newClient(wrap func(http.RoundTripper) http.RoundTripper) *http.Client {
	var rt http.RoundTripper = &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	if wrap != nil {
		rt = wrap(rt)
	}
	return &http.Client{Transport: rt, Timeout: 60 * time.Second}
}

// errStatus is a non-2xx answer.
type errStatus struct {
	code int
	body string
}

func (e *errStatus) Error() string {
	return fmt.Sprintf("status %d: %.200s", e.code, e.body)
}

// do issues one request and reads the whole body; a non-2xx status is an
// *errStatus.
func do(c *http.Client, method, url string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: read body: %w", method, url, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return data, &errStatus{code: resp.StatusCode, body: string(data)}
	}
	return data, nil
}

// getJSON GETs url and decodes the JSON answer into v.
func getJSON(c *http.Client, url string, v any) error {
	data, err := do(c, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// submitReply is the POST /v1/jobs answer.
type submitReply struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Cached    bool   `json:"cached"`
	FromStore bool   `json:"from_store"`
}

// spannerReply is the GET /v1/jobs/{id}/spanner and
// GET /v1/sessions/{id}/spanner answer; Digest is set by sessions only.
type spannerReply struct {
	Digest  string `json:"digest"`
	Spanner string `json:"spanner"`
}

// waitDone follows a job's NDJSON events stream until a terminal state and
// returns that state.
func waitDone(c *http.Client, base, id string) (string, error) {
	resp, err := c.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return "", &errStatus{code: resp.StatusCode, body: string(data)}
	}
	dec := json.NewDecoder(resp.Body)
	state := ""
	for {
		var ev struct {
			State string `json:"state"`
		}
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				return state, nil
			}
			return state, fmt.Errorf("events: %w", err)
		}
		state = ev.State
		switch state {
		case "done", "failed", "cancelled", "deadline_exceeded":
			// Drain the rest so the connection is reusable.
			_, _ = io.Copy(io.Discard, resp.Body)
			return state, nil
		}
	}
}
