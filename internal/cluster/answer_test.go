package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"github.com/ftspanner/ftspanner/internal/core"
	"github.com/ftspanner/ftspanner/internal/fault"
	"github.com/ftspanner/ftspanner/internal/gen"
	"github.com/ftspanner/ftspanner/internal/service"
)

// spannerAnswer is the job spanner answer's JSON shape.
type spannerAnswer struct {
	ID      string `json:"id"`
	Spanner string `json:"spanner"`
	Kept    []int  `json:"kept"`
}

// TestFleetSpannerAnswerBytes reads a job with a fleet-prefixed ID through
// every node: each answer must be the bytes encoding/json writes over the
// greedy's own spanner graph, and /v1/verify must pass the result.
func TestFleetSpannerAnswerBytes(t *testing.T) {
	f := startFleet(t, 3, service.Config{})
	seed, body := seedOwnedBy(t, f.replicas[0].node.Ring(), 1, false)
	m, _ := postJob(t, f.byRing(0), body)
	id, _ := m["id"].(string)
	if idx, _ := parseID(id); idx != 1 {
		t.Fatalf("job id %q is not scoped to its owner's ring index 1", id)
	}
	waitDone(t, f.byRing(0), id)

	g, err := gen.ConnectedGNM(40, 100, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Greedy(g, core.Options{Stretch: 3, Faults: 1, Mode: fault.Vertices})
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := res.Spanner.Encode(&text); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(spannerAnswer{ID: id, Spanner: text.String(), Kept: res.Kept}); err != nil {
		t.Fatal(err)
	}
	for _, entry := range f.replicas {
		got := fleetDo(t, entry, http.MethodGet, "/v1/jobs/"+id+"/spanner", "")
		if got.code != http.StatusOK || !bytes.Equal(got.body, want.Bytes()) {
			t.Fatalf("spanner via %s: http %d\n got %.300q\nwant %.300q", entry.addr, got.code, got.body, want.Bytes())
		}
		v := fleetDo(t, entry, http.MethodPost, "/v1/verify", fmt.Sprintf(`{"job_id":%q,"trials":8,"seed":2}`, id))
		if v.code != http.StatusOK || !bytes.Contains(v.body, []byte(`"ok":true`)) {
			t.Fatalf("verify via %s: http %d: %s", entry.addr, v.code, v.body)
		}
	}
}
