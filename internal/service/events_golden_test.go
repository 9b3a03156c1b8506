package service

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// The NDJSON event streams are a wire format: clients parse them line by
// line, so the bytes of each record are pinned against golden files under
// testdata/events. Every stream here is read after its entity reached its
// terminal event, so it is the whole log and fully deterministic.

// openStream GETs an NDJSON stream; the caller reads and closes the body.
func openStream(t *testing.T, url string) io.ReadCloser {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		resp.Body.Close()
		t.Fatalf("GET %s: Content-Type %q", url, ct)
	}
	return resp.Body
}

// readStream returns an NDJSON stream's body up to EOF.
func readStream(t *testing.T, url string) []byte {
	t.Helper()
	return readAll(t, openStream(t, url))
}

func readAll(t *testing.T, body io.ReadCloser) []byte {
	t.Helper()
	defer body.Close()
	b, err := io.ReadAll(body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenStreams drives one entity to each golden end state and returns its
// stream by golden file name.
func goldenStreams(t *testing.T) map[string][]byte {
	_, ts := newTestServer(t, Config{Workers: 1})
	out := make(map[string][]byte)

	built := submitJob(t, ts, smallSpec(3))
	waitState(t, ts, built.ID, StateDone)
	out["job_built"] = readStream(t, ts.URL+"/v1/jobs/"+built.ID+"/events")

	cached := submitJob(t, ts, smallSpec(3))
	if !cached.Cached {
		t.Fatalf("resubmission not cached: %+v", cached)
	}
	out["job_cached"] = readStream(t, ts.URL+"/v1/jobs/"+cached.ID+"/events")

	// One slow build holds the only worker, so the second job stays queued
	// until it is cancelled.
	slow := submitJob(t, ts, slowSpec(4))
	queued := submitJob(t, ts, smallSpec(5))
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil, nil); code != http.StatusAccepted {
		t.Fatalf("cancel queued job = %d", code)
	}
	out["job_cancelled_queued"] = readStream(t, ts.URL+"/v1/jobs/"+queued.ID+"/events")
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+slow.ID, nil, nil)

	var sess sessionResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", map[string]any{
		"graph": pathGraph(t, 5), "stretch": 3, "faults": 1,
	}, &sess); code != http.StatusCreated {
		t.Fatalf("create session = %d", code)
	}
	// A deleted session is gone from the map, so its stream opens first.
	stream := openStream(t, ts.URL+"/v1/sessions/"+sess.ID+"/events")
	for _, body := range []map[string]any{
		{"deltas": []map[string]any{{"op": "insert", "u": 0, "v": 4, "weight": 0.5}}},
		{"add_vertices": 1, "deltas": []map[string]any{
			{"op": "insert", "u": 4, "v": 5, "weight": 2},
			{"op": "delete", "u": 1, "v": 2},
		}},
	} {
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+sess.ID+"/deltas", body, nil); code != http.StatusOK {
			t.Fatalf("deltas = %d", code)
		}
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/"+sess.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("delete session = %d", code)
	}
	out["session_deleted"] = readAll(t, stream)
	return out
}

// TestEventStreamsGolden checks every stream byte for byte against its
// golden file.
func TestEventStreamsGolden(t *testing.T) {
	for name, got := range goldenStreams(t) {
		want, err := os.ReadFile(filepath.Join("testdata", "events", name+".ndjson"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s stream changed:\ngot:\n%s\nwant:\n%s", name, got, want)
		}
	}
}
