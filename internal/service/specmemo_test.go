package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/ftspanner/ftspanner/internal/gen"
)

// postBody sends one raw job body to s and returns the status code and the
// answer.
func postBody(s *Server, body []byte) (int, []byte) {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	return w.Code, w.Body.Bytes()
}

// getBody reads one path from s.
func getBody(s *Server, path string) (int, []byte) {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w.Code, w.Body.Bytes()
}

// withoutID re-renders a JSON answer without its "id" field and, in a job
// status, without the build's wall time, which differs between servers
// that each built the result.
func withoutID(t *testing.T, answer []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(answer, &m); err != nil {
		t.Fatalf("answer %q: %v", answer, err)
	}
	delete(m, "id")
	if stats, ok := m["stats"].(map[string]any); ok {
		delete(stats, "duration_ms")
	}
	out, _ := json.Marshal(m)
	return string(out)
}

// answerID returns a submit answer's job ID.
func answerID(t *testing.T, answer []byte) string {
	t.Helper()
	var sub submitResponse
	if err := json.Unmarshal(answer, &sub); err != nil || sub.ID == "" {
		t.Fatalf("answer %q carries no job ID (%v)", answer, err)
	}
	return sub.ID
}

// waitJob blocks until job id on s is terminal. A done job's result is
// already in the memory cache, so an identical submission after this hits
// it.
func waitJob(t *testing.T, s *Server, id string) {
	t.Helper()
	job, ok := s.job(id)
	if !ok {
		t.Fatalf("no job %s", id)
	}
	<-job.done
}

// inlineBody wraps graph text as a job body.
func inlineBody(text string) []byte {
	b, _ := json.Marshal(JobSpec{Graph: text, Stretch: 3, Faults: 1})
	return b
}

// decodeCorpus returns the graph decoder's committed fuzz inputs and its
// in-code seeds.
func decodeCorpus(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("../graph/testdata/fuzz/FuzzDecodeDifferential/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("decode corpus: %v (%d files)", err, len(files))
	}
	texts := []string{
		"p 3 2\ne 0 1 1\ne 1 2 0.5\n",
		"p 2 1\ne 0 1 1e300\n",
		"p 2 1\ne 0 1 nan\n",
		"p -1 0\n",
		"p 2 1\ne 0 0 1\n",
		"p 99999999999999999999 0\n",
		strings.Repeat("p 1 0\n", 3),
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(data)), "go test fuzz v1\n[]byte(")
		if !ok || !strings.HasSuffix(lit, ")") {
			t.Fatalf("%s: not a one-[]byte corpus file", f)
		}
		text, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		texts = append(texts, text)
	}
	return texts
}

// differentialBodies is the memo differential's input: the decode corpora
// as inline specs, the invalid specs the cluster-surface and inline-graph
// tests use, and three hot-pool-sized GNM(800, 1000) graphs.
func differentialBodies(t *testing.T) [][]byte {
	var bodies [][]byte
	for _, text := range decodeCorpus(t) {
		bodies = append(bodies, inlineBody(text))
	}
	bodies = append(bodies,
		[]byte(`{"stretch":0}`),
		inlineBody(hostileHeader),
		[]byte(`{"graph":"p 2 1\ne 0 1 1\n","stretch":3,"bogus":1}`),
		[]byte(`{"generator":{"name":"random","n":30,"m":60,"seed":5},"stretch":3,"faults":1}`),
		[]byte(`{"generator":{"name":"nope"},"stretch":3}`),
		[]byte(`not json`),
	)
	for seed := int64(1); seed <= 3; seed++ {
		g, err := gen.ConnectedGNM(800, 1000, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := g.Encode(&sb); err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, inlineBody(sb.String()))
	}
	seen := make(map[string]bool)
	out := bodies[:0]
	for _, b := range bodies {
		if !seen[string(b)] {
			seen[string(b)] = true
			out = append(out, b)
		}
	}
	return out
}

// TestSpecMemoDifferential sends every body to one server twice — the
// first time it misses the memo, the second it hits — and once to a second
// server whose memo never saw it. Both servers first build each valid
// body's result from a whitespace variant of the body (another memo key),
// so every send finds the same cache state. All three sends must answer
// the same status and the same body apart from the job ID, and so must the
// jobs' status and spanner reads; an invalid body must give the same 400
// on every try, which also shows errors are not memoized.
func TestSpecMemoDifferential(t *testing.T) {
	a := sessionTestServer(t, Config{Workers: 2})
	b := sessionTestServer(t, Config{Workers: 2})
	valid := 0
	for i, body := range differentialBodies(t) {
		for _, s := range []*Server{a, b} {
			if code, ans := postBody(s, append([]byte(" "), body...)); code < 300 {
				waitJob(t, s, answerID(t, ans))
			}
		}
		aHits, aMisses := a.memo.counts()
		missCode, miss := postBody(a, body)
		hitCode, hit := postBody(a, body)
		freshCode, fresh := postBody(b, body)
		if missCode != hitCode || missCode != freshCode {
			t.Fatalf("body %d (%.60q): status miss %d, hit %d, fresh memo %d", i, body, missCode, hitCode, freshCode)
		}
		if missCode >= 300 {
			if missCode != http.StatusBadRequest || !bytes.Equal(miss, hit) || !bytes.Equal(miss, fresh) {
				t.Fatalf("body %d (%.60q): errors differ: miss %d %s, hit %s, fresh memo %s",
					i, body, missCode, miss, hit, fresh)
			}
			if h, m := a.memo.counts(); h != aHits || m != aMisses+2 {
				t.Fatalf("body %d: an invalid body moved the memo to %d hits / %d misses from %d / %d, want two misses",
					i, h, m, aHits, aMisses)
			}
			continue
		}
		valid++
		if h, m := a.memo.counts(); h != aHits+1 || m != aMisses+1 {
			t.Fatalf("body %d: memo at %d hits / %d misses from %d / %d, want one of each", i, h, m, aHits, aMisses)
		}
		want := withoutID(t, miss)
		for _, got := range [][]byte{hit, fresh} {
			if withoutID(t, got) != want {
				t.Fatalf("body %d: answer %s, want %s apart from the ID", i, got, want)
			}
		}
		ids := []string{answerID(t, miss), answerID(t, hit), answerID(t, fresh)}
		for _, path := range []string{"/v1/jobs/%s", "/v1/jobs/%s/spanner"} {
			var first string
			for j, s := range []*Server{a, a, b} {
				code, ans := getBody(s, fmt.Sprintf(path, ids[j]))
				if code != http.StatusOK {
					t.Fatalf("body %d: GET %s: %d %s", i, fmt.Sprintf(path, ids[j]), code, ans)
				}
				if j == 0 {
					first = withoutID(t, ans)
				} else if got := withoutID(t, ans); got != first {
					t.Fatalf("body %d: GET %s answers %s, want %s apart from the ID", i, path, got, first)
				}
			}
		}
	}
	if valid < 5 {
		t.Fatalf("only %d valid bodies in the differential", valid)
	}
}

// TestSpecMemoHitAfterEviction covers a memo hit whose result left the
// memory LRU: the graph is decoded again from the body, and the job is
// answered from the disk tier when there is one and rebuilt when not, with
// the same spanner either way.
func TestSpecMemoHitAfterEviction(t *testing.T) {
	for _, withStore := range []bool{false, true} {
		t.Run(fmt.Sprintf("store=%v", withStore), func(t *testing.T) {
			cfg := Config{Workers: 1, CacheEntries: 1}
			if withStore {
				cfg.StoreDir = t.TempDir()
			}
			s := sessionTestServer(t, cfg)
			x, y := inlineBody("p 4 3\ne 0 1 1\ne 1 2 1\ne 2 3 1\n"), inlineBody("p 3 2\ne 0 1 1\ne 1 2 2\n")
			_, first := postBody(s, x)
			waitJob(t, s, answerID(t, first))
			_, other := postBody(s, y) // evicts x's result from the one-entry LRU
			waitJob(t, s, answerID(t, other))

			code, again := postBody(s, x)
			if hits, _ := s.memo.counts(); hits != 1 {
				t.Fatalf("memo hits %d after resubmitting x, want 1", hits)
			}
			var sub submitResponse
			_ = json.Unmarshal(again, &sub)
			if withStore && (code != http.StatusOK || !sub.FromStore) {
				t.Fatalf("resubmission answered %d %s, want a disk-tier hit", code, again)
			}
			if !withStore && (code != http.StatusAccepted || sub.Cached) {
				t.Fatalf("resubmission answered %d %s, want a queued rebuild", code, again)
			}
			waitJob(t, s, sub.ID)
			_, want := getBody(s, "/v1/jobs/"+answerID(t, first)+"/spanner")
			_, got := getBody(s, "/v1/jobs/"+sub.ID+"/spanner")
			if withoutID(t, got) != withoutID(t, want) {
				t.Fatalf("spanner after the memo hit %s, want %s", got, want)
			}
			_, st := getBody(s, "/v1/jobs/"+sub.ID)
			var status statusResponse
			_ = json.Unmarshal(st, &status)
			if status.Vertices != 4 || status.InputEdges != 3 {
				t.Fatalf("job sized %d vertices, %d edges, want 4 and 3", status.Vertices, status.InputEdges)
			}
		})
	}
}

// TestSpecMemoBounded checks the memo keeps no graph text and no more than
// specMemoEntries bodies.
func TestSpecMemoBounded(t *testing.T) {
	m := newSpecMemo()
	res, err := m.resolve(inlineBody("p 3 2\ne 0 1 1\ne 1 2 0.5\n"))
	if err != nil || res.g == nil {
		t.Fatalf("first resolve: graph %v, err %v", res.g, err)
	}
	if res.sub.spec.Graph != "" {
		t.Fatalf("memoized spec keeps graph text %q", res.sub.spec.Graph)
	}
	for seed := 0; seed < specMemoEntries+50; seed++ {
		body := fmt.Sprintf(`{"generator":{"name":"grid","rows":2,"cols":2},"stretch":3,"seed":%d}`, seed)
		if _, err := m.resolve([]byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.lru.Len(); n != specMemoEntries {
		t.Fatalf("memo holds %d entries, want its bound %d", n, specMemoEntries)
	}
}

// TestSpecMemoConcurrent resolves overlapping bodies from many goroutines
// through one memo, past its capacity, so the race detector sees lookups,
// inserts and evictions interleave; every answer must equal the unmemoized
// resolution.
func TestSpecMemoConcurrent(t *testing.T) {
	m := newSpecMemo()
	const bodies = specMemoEntries + 64
	want := make([]string, bodies)
	body := func(i int) []byte {
		return []byte(fmt.Sprintf(`{"generator":{"name":"random","n":5,"m":6,"seed":%d},"stretch":3}`, i))
	}
	for i := range want {
		d, err := SpecDigest(body(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = d
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2*bodies; i++ {
				j := (i*7 + w*131) % bodies
				if res, err := m.resolve(body(j)); err != nil || res.Digest() != want[j] {
					t.Errorf("body %d: digest %s (%v), want %s", j, res.Digest(), err, want[j])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if h, mi := m.counts(); h+mi != 4*2*bodies || h == 0 {
		t.Fatalf("memo counted %d hits and %d misses for %d lookups", h, mi, 4*2*bodies)
	}
}
