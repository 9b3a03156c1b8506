package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// Coverage for the one NDJSON follower's exits, over both stream kinds: a
// client disconnect mid-stream and a server Close mid-stream must both end
// the handler goroutine (no leak parked on the log's wake channel), and the
// Close path must end the stream on the entity's terminal event. The third
// exit — a proxied stream through the fleet router relaying the terminal
// event — lives in internal/cluster's e2e suite.

// waitGoroutines polls until the process goroutine count settles at or
// below limit, dumping all stacks on timeout.
func waitGoroutines(t *testing.T, limit int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= limit {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine count %d never settled to %d:\n%s", runtime.NumGoroutine(), limit, buf[:n])
}

// streamLine decodes the fields of either stream kind's records that the
// exit checks read.
type streamLine struct {
	State  State  `json:"state"`
	Type   string `json:"type"`
	Reason string `json:"reason"`
}

// streamKind is one kind of live entity with an events stream.
type streamKind struct {
	name string
	// start makes a live entity and returns its events path.
	start func(t *testing.T, ts *httptest.Server) string
	// closedBy reports whether last is the terminal event Close emits.
	closedBy func(last streamLine) bool
	// stillLive checks the entity carries on after its follower hung up.
	stillLive func(t *testing.T, ts *httptest.Server, path string)
}

var streamKinds = []streamKind{
	{
		name: "job",
		start: func(t *testing.T, ts *httptest.Server) string {
			sub := submitJob(t, ts, slowSpec(2))
			waitState(t, ts, sub.ID, StateRunning)
			return "/v1/jobs/" + sub.ID
		},
		// Close cancels the running build's context, so the job ends
		// cancelled (or done, if the build won the race).
		closedBy: func(last streamLine) bool { return last.State.Terminal() },
		stillLive: func(t *testing.T, ts *httptest.Server, path string) {
			// Streams are observers, not owners: the build runs on.
			var st statusResponse
			doJSON(t, http.MethodGet, ts.URL+path, nil, &st)
			waitState(t, ts, st.ID, StateDone)
		},
	},
	{
		name: "session",
		start: func(t *testing.T, ts *httptest.Server) string {
			var sess sessionResponse
			if code := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", map[string]any{
				"graph": pathGraph(t, 5), "stretch": 3, "faults": 1,
			}, &sess); code != http.StatusCreated {
				t.Fatalf("create session = %d", code)
			}
			return "/v1/sessions/" + sess.ID
		},
		closedBy: func(last streamLine) bool {
			return last.Type == "closed" && last.Reason == "server closed"
		},
		stillLive: func(t *testing.T, ts *httptest.Server, path string) {
			body := map[string]any{"deltas": []map[string]any{{"op": "insert", "u": 0, "v": 4, "weight": 0.5}}}
			if code := doJSON(t, http.MethodPost, ts.URL+path+"/deltas", body, nil); code != http.StatusOK {
				t.Fatalf("deltas after disconnect = %d, want 200", code)
			}
		},
	},
}

// TestEventStreamExits runs every stream kind through both follower exits.
func TestEventStreamExits(t *testing.T) {
	for _, kind := range streamKinds {
		t.Run(kind.name, func(t *testing.T) {
			t.Run("disconnect", func(t *testing.T) { testStreamDisconnect(t, kind) })
			t.Run("close", func(t *testing.T) { testStreamServerClose(t, kind) })
		})
	}
}

// openLiveStream opens path's events stream on its own transport and waits
// for its first record, so the follower is known to be parked on the log.
func openLiveStream(t *testing.T, ctx context.Context, ts *httptest.Server, path string) (*bufio.Scanner, func()) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+path+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := &http.Transport{}
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no event on a live stream: %v", sc.Err())
	}
	return sc, func() {
		resp.Body.Close()
		tr.CloseIdleConnections()
	}
}

// testStreamDisconnect hangs up mid-stream and checks the handler goroutine
// (and its connection) unwind while the entity itself carries on.
func testStreamDisconnect(t *testing.T, kind streamKind) {
	_, ts := newTestServer(t, Config{Workers: 1})
	path := kind.start(t, ts)

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	_, release := openLiveStream(t, ctx, ts, path)
	defer release()
	cancel()

	waitGoroutines(t, baseline)
	kind.stillLive(t, ts, path)
}

// testStreamServerClose closes the server under an open stream and checks
// the stream ends on the entity's terminal event and the handler does not
// leak.
func testStreamServerClose(t *testing.T, kind streamKind) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	path := kind.start(t, ts)

	baseline := runtime.NumGoroutine()
	sc, release := openLiveStream(t, context.Background(), ts, path)
	defer release()

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()

	var last streamLine
	_ = json.Unmarshal(sc.Bytes(), &last)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if !kind.closedBy(last) {
		t.Fatalf("stream ended on %+v — shutdown lost the terminal event", last)
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("server Close never returned")
	}
	// Handler plus the server's worker/janitor goroutines are gone, and so
	// is the stream's connection once the client lets it go.
	release()
	waitGoroutines(t, baseline)
}
