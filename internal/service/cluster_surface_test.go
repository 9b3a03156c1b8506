package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"github.com/ftspanner/ftspanner/internal/store"
)

// TestClusterSummaryShape covers the peer-facing summary across the
// accepting, draining, and store-less states.
func TestClusterSummaryShape(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, StoreDir: t.TempDir()})
	var sum ClusterSummary
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/cluster/summary", nil, &sum); code != http.StatusOK {
		t.Fatalf("summary: http %d", code)
	}
	if !sum.Accepting || sum.Draining || sum.QueueCap != 4 || sum.Store != "ok" {
		t.Fatalf("idle summary %+v", sum)
	}
	if sum.RetryAfterSec < 1 {
		t.Errorf("retry-after hint %d, want >= 1", sum.RetryAfterSec)
	}

	srv.StartDrain()
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/cluster/summary", nil, &sum); code != http.StatusOK {
		t.Fatalf("summary while draining: http %d", code)
	}
	if sum.Accepting || !sum.Draining {
		t.Fatalf("draining summary %+v", sum)
	}

	_, storeless := newTestServer(t, Config{Workers: 1})
	if code := doJSON(t, http.MethodGet, storeless.URL+"/v1/cluster/summary", nil, &sum); code != http.StatusOK {
		t.Fatalf("store-less summary: http %d", code)
	}
	if sum.Store != "disabled" || sum.Records != 0 {
		t.Fatalf("store-less summary %+v", sum)
	}
}

// TestClusterRecordsExport covers the anti-entropy listing and raw export:
// a completed job's record is listed, its bytes round-trip through the
// store codec, and unknown names answer 404.
func TestClusterRecordsExport(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, StoreDir: t.TempDir()})
	sub := submitJob(t, ts, smallSpec(3))
	waitState(t, ts, sub.ID, StateDone)

	// The job turns "done" before the durable write lands, so poll briefly
	// for the record to appear.
	var listing struct {
		Records []store.RecordInfo `json:"records"`
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/cluster/records", nil, &listing); code != http.StatusOK {
			t.Fatalf("records: http %d", code)
		}
		if len(listing.Records) == 1 && listing.Records[0].Size > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("records listing %+v, want one sized entry", listing.Records)
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/v1/cluster/records/" + listing.Records[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || int64(len(data)) != listing.Records[0].Size {
		t.Fatalf("export: http %d, %d bytes, want %d", resp.StatusCode, len(data), listing.Records[0].Size)
	}

	resp, err = http.Get(ts.URL + "/v1/cluster/records/no-such-record")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing record: http %d, want 404", resp.StatusCode)
	}
}

// TestSpecDigestMatchesSubmission pins the router's routing contract: the
// digest SpecDigest computes for a body, and the digest a spec memo
// resolves it to on a miss and on a hit, equal the graph digest the owning
// server reports for the same submission.
func TestSpecDigestMatchesSubmission(t *testing.T) {
	body := []byte(`{"algorithm":"greedy","stretch":3,"faults":1,"generator":{"name":"random","n":30,"m":60,"seed":5}}`)
	digest, err := SpecDigest(body)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := waitState(t, ts, sub.ID, StateDone)
	if st.GraphDigest != digest {
		t.Fatalf("SpecDigest %s != submitted job's graph digest %s", digest, st.GraphDigest)
	}
	router := newSpecMemo()
	for _, try := range []string{"miss", "hit"} {
		if res, err := router.resolve(body); err != nil || res.Digest() != st.GraphDigest {
			t.Fatalf("memoized router digest on a %s: %s (%v), want the owner's %s", try, res.Digest(), err, st.GraphDigest)
		}
	}
	if hits, misses := router.counts(); hits != 1 || misses != 1 {
		t.Fatalf("router memo counted %d hits and %d misses, want 1 and 1", hits, misses)
	}

	bad := []byte(`{"stretch":0}`)
	if _, err := SpecDigest(bad); err == nil {
		t.Error("SpecDigest accepted an invalid spec")
	}
	_, want := SpecDigest(bad)
	for try := 0; try < 2; try++ {
		if _, err := router.resolve(bad); err == nil || err.Error() != want.Error() {
			t.Errorf("memoized router digest of an invalid spec, try %d: %v, want %v", try, err, want)
		}
	}
}
