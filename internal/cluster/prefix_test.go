package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

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

// rewriteIDsReference is the original ID rewrite: a full decode into a map
// and a compact, key-sorted re-encode. The in-place splice must produce a
// body that decodes to the same JSON value.
func rewriteIDsReference(body []byte, fn func(string) string, field string) []byte {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return body
	}
	v, ok := m[field].(string)
	if !ok {
		return body
	}
	m[field] = fn(v)
	out, err := json.Marshal(m)
	if err != nil {
		return body
	}
	return out
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

// jsonValue decodes a JSON document for comparison by value.
func jsonValue(t *testing.T, body []byte) any {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decode %q: %v", body, err)
	}
	return v
}

// TestRewriteIDMatchesMapRoundTrip compares the splice with the map round
// trip it replaced, on service-shaped answers and on awkward JSON.
func TestRewriteIDMatchesMapRoundTrip(t *testing.T) {
	prefix := func(id string) string { return prefixID(2, id) }
	indented, _ := json.MarshalIndent(map[string]any{"id": "j1"}, "", "  ")
	for _, body := range []string{
		`{"id":"j1","state":"done","cached":true}`,
		string(indented),
		"{\n  \"id\": \"j1\",\n  \"spanner\": \"p 2 1\\ne 0 1 1\\n\",\n  \"kept\": [\n    0\n  ]\n}\n",
		` { "id" : "j\u00e9\"1\\" , "nested": {"id": "x"}, "list": [{"id": "y"}] } `,
		`{"id":"<&>"}`,
		`{"id":""}`,
	} {
		got := rewriteID([]byte(body), "id", prefix, true)
		want := rewriteIDsReference([]byte(body), prefix, "id")
		if !reflect.DeepEqual(jsonValue(t, got), jsonValue(t, want)) {
			t.Errorf("rewrite of %q:\n got %s\nwant %s", body, got, want)
		}
	}

	// Bodies the answer rewrite leaves byte for byte: errors and anything
	// whose first key is not the ID, non-string IDs, non-objects.
	for _, body := range []string{
		`{"error":"no job \"j1\""}`,
		`{"state":"done","id":"j1"}`,
		`{"id":5}`,
		`{"id":null,"x":"y"}`,
		`{}`,
		`[{"id":"j1"}]`,
		`"j1"`,
		``,
		`{"id":`,
		`not json`,
	} {
		if got := rewriteID([]byte(body), "id", prefix, true); string(got) != body {
			t.Errorf("rewrite of %q changed it to %q", body, got)
		}
	}

	// The request rewrite finds the field anywhere at the top level, and
	// rewrites the occurrence a decoder would read.
	raw := func(string) string { return "j9" }
	for _, body := range []string{
		`{"job_id":"p1~j9","trials":8}`,
		`{"trials":8,"seed":1,"job_id":"p1~j9"}`,
		`{"trials":{"job_id":"inner"},"job_id":"p1~j9"}`,
		`{"job_id":"p0~j1","job_id":"p1~j9"}`,
	} {
		got := rewriteID([]byte(body), "job_id", raw, false)
		want := rewriteIDsReference([]byte(body), raw, "job_id")
		if !reflect.DeepEqual(jsonValue(t, got), jsonValue(t, want)) {
			t.Errorf("request rewrite of %q:\n got %s\nwant %s", body, got, want)
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

// TestFleetAnswersKeepServiceLayout drives submit, status, spanner and
// verify through the owner (the local path) and through a non-owner (the
// forwarded submit and the proxied reads). Every answer must be the
// service's own bytes with only the ID scoped, and must decode to the same
// value the old map round trip produced from the service's answer.
func TestFleetAnswersKeepServiceLayout(t *testing.T) {
	f := startFleet(t, 3, service.Config{})
	_, body := seedOwnedBy(t, f.replicas[0].node.Ring(), 0, false)
	owner, other := f.byRing(0), f.byRing(1)
	scope := func(id string) string { return prefixID(0, id) }

	// checkScoped compares a fleet answer with the service's direct answer
	// for the same request.
	checkScoped := func(name string, got, direct fleetAnswer, field, rawID string) {
		t.Helper()
		if got.code != direct.code {
			t.Fatalf("%s: http %d, service answered %d (%s)", name, got.code, direct.code, got.body)
		}
		from := fmt.Sprintf("%q: %q", field, rawID)
		want := bytes.Replace(direct.body, []byte(from), []byte(fmt.Sprintf("%q: %q", field, scope(rawID))), 1)
		if !bytes.Equal(got.body, want) {
			t.Fatalf("%s: answer\n%s\nwant the service's bytes with the ID scoped:\n%s", name, got.body, want)
		}
		old := rewriteIDsReference(direct.body, scope, field)
		if !reflect.DeepEqual(jsonValue(t, got.body), jsonValue(t, old)) {
			t.Fatalf("%s: answer %s decodes unlike the map round trip's %s", name, got.body, old)
		}
	}

	// Submit: through the owner (local) and through a non-owner
	// (forwarded to the owner, relayed back).
	var pid string
	for _, entry := range []*replica{owner, other} {
		a := fleetDo(t, entry, http.MethodPost, "/v1/jobs", string(body))
		if a.code != http.StatusOK && a.code != http.StatusAccepted {
			t.Fatalf("submit via %s: http %d (%s)", entry.addr, a.code, a.body)
		}
		var sub struct {
			ID string `json:"id"`
		}
		_ = json.Unmarshal(a.body, &sub)
		if !bytes.HasPrefix(a.body, []byte("{\n  \"id\": \"p0~")) {
			t.Fatalf("submit via %s: answer %s does not lead with the scoped id in the service layout", entry.addr, a.body)
		}
		old := rewriteIDsReference(bytes.Replace(a.body, []byte("p0~"), nil, 1), scope, "id")
		if !reflect.DeepEqual(jsonValue(t, a.body), jsonValue(t, old)) {
			t.Fatalf("submit via %s: answer %s decodes unlike the map round trip's %s", entry.addr, a.body, old)
		}
		if pid == "" {
			pid = sub.ID
			waitDone(t, owner, pid)
		}
	}
	_, rawID := parseID(pid)

	for _, entry := range []*replica{owner, other} {
		for _, path := range []string{"/v1/jobs/%s", "/v1/jobs/%s/spanner"} {
			got := fleetDo(t, entry, http.MethodGet, fmt.Sprintf(path, pid), "")
			direct := serviceDo(owner, http.MethodGet, fmt.Sprintf(path, rawID), "")
			checkScoped(fmt.Sprintf("GET %s via %s", path, entry.addr), got, direct, "id", rawID)
		}
		// Verify, with the job ID leading and trailing in the request.
		for _, req := range []string{`{"job_id":%q,"trials":4,"seed":3}`, `{"trials":4,"seed":3,"job_id":%q}`} {
			got := fleetDo(t, entry, http.MethodPost, "/v1/verify", fmt.Sprintf(req, pid))
			direct := serviceDo(owner, http.MethodPost, "/v1/verify", fmt.Sprintf(req, rawID))
			checkScoped(fmt.Sprintf("verify %s via %s", req, entry.addr), got, direct, "job_id", rawID)
		}
		// An error answer passes through as the service wrote it.
		missing := "p0~j999999"
		got := fleetDo(t, entry, http.MethodGet, "/v1/jobs/"+missing, "")
		direct := serviceDo(owner, http.MethodGet, "/v1/jobs/j999999", "")
		if got.code != http.StatusNotFound || !bytes.Equal(got.body, direct.body) {
			t.Fatalf("missing job via %s: http %d %s, want 404 %s", entry.addr, got.code, got.body, direct.body)
		}
	}
}
