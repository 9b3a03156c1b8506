package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ftspanner/ftspanner/internal/service"
)

// idPatternReference is the regular expression fleet IDs were once parsed
// with; parseID must agree with it on every input.
var idPatternReference = regexp.MustCompile(`^p(\d+)~(.+)$`)

func parseIDReference(id string) (int, string) {
	m := idPatternReference.FindStringSubmatch(id)
	if m == nil {
		return -1, id
	}
	idx, err := strconv.Atoi(m[1])
	if err != nil {
		return -1, id
	}
	return idx, m[2]
}

func TestParseIDMatchesPattern(t *testing.T) {
	for _, tc := range []struct {
		id    string
		idx   int
		local string
	}{
		{"p1~j2", 1, "j2"},
		{"p01~x", 1, "x"},
		{"p~x", -1, "p~x"},
		{"px~y", -1, "px~y"},
		{"p1~", -1, "p1~"},
		{"j7", -1, "j7"},
		{"p99999999999999999999~j1", -1, "p99999999999999999999~j1"},
		{"p" + strconv.Itoa(math.MaxInt) + "~j1", math.MaxInt, "j1"},
		{"p12~a~b", 12, "a~b"},
		{"p1~a\nb", -1, "p1~a\nb"},
		{"p+1~j", -1, "p+1~j"},
		{"p-1~j", -1, "p-1~j"},
		{"P1~j", -1, "P1~j"},
		{"p1x~j", -1, "p1x~j"},
		{" p1~j", -1, " p1~j"},
		{"p1~\r", 1, "\r"},
		{"p٣~j", -1, "p٣~j"},
		{"", -1, ""},
	} {
		idx, local := parseID(tc.id)
		if idx != tc.idx || local != tc.local {
			t.Errorf("parseID(%q) = %d, %q; want %d, %q", tc.id, idx, local, tc.idx, tc.local)
		}
		ridx, rlocal := parseIDReference(tc.id)
		if idx != ridx || local != rlocal {
			t.Errorf("parseID(%q) = %d, %q; the pattern gives %d, %q", tc.id, idx, local, ridx, rlocal)
		}
		if idx < 0 {
			continue
		}
		if i, l := parseID(prefixID(idx, local)); i != idx || l != local {
			t.Errorf("parseID(prefixID(%d, %q)) = %d, %q", idx, local, i, l)
		}
	}
}

// fleetAnswer is one client-visible reply.
type fleetAnswer struct {
	code int
	body []byte
}

func fleetDo(t *testing.T, entry *replica, method, path, body string) fleetAnswer {
	t.Helper()
	req, err := http.NewRequest(method, entry.ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return fleetAnswer{resp.StatusCode, data}
}

// serviceDo asks a replica's service directly, bypassing its node.
func serviceDo(rep *replica, method, path, body string) fleetAnswer {
	w := httptest.NewRecorder()
	rep.svc.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
	return fleetAnswer{w.Code, w.Body.Bytes()}
}

// sameAnswer fails unless the fleet's answer is the owning service's own
// answer, status and bytes.
func sameAnswer(t *testing.T, name string, got, direct fleetAnswer) {
	t.Helper()
	if got.code != direct.code || !bytes.Equal(got.body, direct.body) {
		t.Fatalf("%s: fleet answered %d %s\nthe owning service answers %d %s", name, got.code, got.body, direct.code, direct.body)
	}
}

// TestFleetAnswersKeepServiceLayout drives submit, status, spanner, trace,
// cancel, verify and a missing-job 404 through the owner (the local path)
// and through a non-owner (the forwarded submit and the proxied reads).
// Every answer must be byte-identical to the owning service's own answer
// for the same fleet ID.
func TestFleetAnswersKeepServiceLayout(t *testing.T) {
	// The owner's build parks on the chaos gate, so resubmissions coalesce
	// onto the running job and answer the same ID every time.
	gate := make(chan struct{})
	var block atomic.Bool
	f := startFleet(t, 3, service.Config{Chaos: func(string) {
		if block.Load() {
			<-gate
		}
	}})
	t.Cleanup(func() {
		if block.Swap(false) {
			close(gate)
		}
	})
	_, body := seedOwnedBy(t, f.replicas[0].node.Ring(), 0, false)
	owner, other := f.byRing(0), f.byRing(1)

	block.Store(true)
	first := fleetDo(t, other, http.MethodPost, "/v1/jobs", string(body))
	if first.code != http.StatusAccepted {
		t.Fatalf("first submit: http %d (%s)", first.code, first.body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(first.body, &sub); err != nil {
		t.Fatal(err)
	}
	if idx, _ := parseID(sub.ID); idx != 0 {
		t.Fatalf("job id %q is not scoped to the owner's ring index 0", sub.ID)
	}
	waitQueueFull(t, owner.svc)
	direct := serviceDo(owner, http.MethodPost, "/v1/jobs", string(body))
	for _, entry := range []*replica{owner, other} {
		sameAnswer(t, "deduplicated submit via "+entry.addr, fleetDo(t, entry, http.MethodPost, "/v1/jobs", string(body)), direct)
	}

	block.Store(false)
	close(gate)
	waitDone(t, owner, sub.ID)
	for deadline := time.Now().Add(10 * time.Second); owner.svc.Metrics().BuildsInFlight > 0; {
		if time.Now().After(deadline) {
			t.Fatal("the owner's build never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}

	missing := prefixID(0, "j999999")
	verifyReq := fmt.Sprintf(`{"job_id":%q,"trials":4,"seed":3}`, sub.ID)
	for _, entry := range []*replica{owner, other} {
		for _, req := range []struct{ method, path, body string }{
			{http.MethodGet, "/v1/jobs/" + sub.ID, ""},
			{http.MethodGet, "/v1/jobs/" + sub.ID + "/spanner", ""},
			{http.MethodGet, "/v1/jobs/" + sub.ID + "/trace", ""},
			{http.MethodPost, "/v1/verify", verifyReq},
			{http.MethodDelete, "/v1/jobs/" + sub.ID, ""},
			{http.MethodGet, "/v1/jobs/" + missing, ""},
			{http.MethodPost, "/v1/verify", fmt.Sprintf(`{"job_id":%q}`, missing)},
		} {
			name := fmt.Sprintf("%s %s %s via %s", req.method, req.path, req.body, entry.addr)
			sameAnswer(t, name, fleetDo(t, entry, req.method, req.path, req.body), serviceDo(owner, req.method, req.path, req.body))
		}
	}
	if got := fleetDo(t, other, http.MethodGet, "/v1/jobs/"+missing, ""); !bytes.Contains(got.body, []byte(missing)) {
		t.Fatalf("missing job answer %s does not name the requested ID %s", got.body, missing)
	}
}

// TestFleetReadsDirectSubmits submits straight to each replica's service,
// bypassing its node, and reads every job through every node: the replica
// minted a fleet-scoped ID, so no node mistakes it for a job of its own.
func TestFleetReadsDirectSubmits(t *testing.T) {
	f := startFleet(t, 3, service.Config{})
	ids := make([]string, len(f.replicas))
	for i, rep := range f.replicas {
		a := serviceDo(rep, http.MethodPost, "/v1/jobs", string(specBody(int64(100+i))))
		var sub struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(a.body, &sub); err != nil {
			t.Fatalf("direct submit to %s: http %d (%s)", rep.addr, a.code, a.body)
		}
		ids[i] = sub.ID
	}
	for i, rep := range f.replicas {
		waitDone(t, rep, ids[i])
		path := "/v1/jobs/" + ids[i] + "/spanner"
		for _, entry := range f.replicas {
			sameAnswer(t, fmt.Sprintf("GET %s via %s", path, entry.addr),
				fleetDo(t, entry, http.MethodGet, path, ""), serviceDo(rep, http.MethodGet, path, ""))
		}
		if idx, _ := parseID(ids[i]); idx != rep.node.Ring().Index(rep.addr) {
			t.Errorf("replica %s minted %q, not scoped to its ring index", rep.addr, ids[i])
		}
	}
}
