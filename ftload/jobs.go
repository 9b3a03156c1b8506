package main

import (
	"encoding/json"
	"net/http"
	"time"

	"github.com/ftspanner/ftspanner/internal/service"
)

// jobOp is one job request: POST /v1/jobs, the events stream until the job
// is terminal (unless the POST answered done), and GET of the spanner.
type jobOp struct {
	op
	body   []byte // the submitted spec
	id     string
	cached bool
	store  bool   // answered from the durable store tier
	answer []byte // the spanner answer, kept for the clean-room check
	// got is the answer reduced to what the check needs; jobs-cold keeps
	// only this, so client memory does not grow with the number of jobs.
	got    reducedAnswer
	status *jobStatus
	trace  json.RawMessage // GET /v1/jobs/{id}/trace, traced ops only
}

// jobStatus is the part of GET /v1/jobs/{id} the ledger reads.
type jobStatus struct {
	GraphDigest string `json:"graph_digest"`
	Stats       *struct {
		EdgesScanned  int     `json:"edges_scanned"`
		OracleCalls   int64   `json:"oracle_calls"`
		Dijkstras     int64   `json:"dijkstras"`
		WitnessHits   int64   `json:"witness_hits"`
		WitnessMisses int64   `json:"witness_misses"`
		SpecQueries   int64   `json:"spec_queries"`
		SpecHits      int64   `json:"spec_hits"`
		SpecWaste     int64   `json:"spec_waste"`
		SpecRequeries int64   `json:"spec_requeries"`
		QueueMS       float64 `json:"queue_ms"`
		BuildMS       float64 `json:"build_ms"`
	} `json:"stats"`
}

// runJob issues one job. wantCached makes any answer that is not a cache
// hit a failure (the hot fleet and cross-jobs must never build). A traced
// op also fetches the job's status and trace, after its latency is taken.
func runJob(c *http.Client, base string, body []byte, traced, wantCached bool) *jobOp {
	o := &jobOp{op: op{class: classJob, traced: traced, start: time.Now()}, body: body}
	defer func() { o.lat = time.Since(o.start) }()
	data, err := do(c, http.MethodPost, base+"/v1/jobs", body)
	if err != nil {
		o.fail("submit: %v", err)
		return o
	}
	var sr submitReply
	if err := json.Unmarshal(data, &sr); err != nil {
		o.fail("submit answer: %v", err)
		return o
	}
	o.id, o.cached, o.store = sr.ID, sr.Cached, sr.FromStore
	o.submit = time.Since(o.start)
	if wantCached && !sr.Cached {
		o.fail("job %s answered cached=false (state %s)", sr.ID, sr.State)
		return o
	}
	if !service.State(sr.State).Terminal() {
		state, err := waitDone(c, base, sr.ID)
		if err != nil {
			o.fail("events: %v", err)
			return o
		}
		sr.State = state
	}
	if sr.State != string(service.StateDone) {
		o.fail("job %s ended %s", sr.ID, sr.State)
		return o
	}
	t := time.Now()
	o.answer, err = do(c, http.MethodGet, base+"/v1/jobs/"+sr.ID+"/spanner", nil)
	o.read = time.Since(t)
	if err != nil {
		o.fail("spanner: %v", err)
	}
	return o
}

// fetchTrace reads a traced op's status and trace; it runs after the op's
// latency is taken.
func (o *jobOp) fetchTrace(c *http.Client, base string) {
	if !o.traced || o.failed() {
		return
	}
	var st jobStatus
	if err := getJSON(c, base+"/v1/jobs/"+o.id, &st); err != nil {
		o.fail("status: %v", err)
		return
	}
	o.status = &st
	raw, err := do(c, http.MethodGet, base+"/v1/jobs/"+o.id+"/trace", nil)
	if err != nil {
		o.fail("trace: %v", err)
		return
	}
	o.trace = raw
}

// httpParts are a job's HTTP spans: submit, wait and read.
func (o *jobOp) httpParts() []part {
	wait := o.lat - o.submit - o.read
	return []part{
		{name: "http.submit", start: o.start, d: o.submit},
		{name: "http.wait", start: o.start.Add(o.submit), d: wait},
		{name: "http.read", start: o.start.Add(o.submit + wait), d: o.read},
	}
}
