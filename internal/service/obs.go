package service

import (
	"time"

	"github.com/ftspanner/ftspanner/internal/obs"
	"github.com/ftspanner/ftspanner/internal/store"
)

// latencies holds the server's log-bucketed latency histograms, one per
// operation class: how long jobs wait in the queue, how long builds and
// persists take, and how long the hot inner operations (oracle fault-set
// queries, store reads/writes) run. All are
// safe for concurrent recording and summarized in GET /metrics.
type latencies struct {
	queueWait      *obs.Histogram
	build          *obs.Histogram
	persist        *obs.Histogram
	storeGet       *obs.Histogram
	storePut       *obs.Histogram
	oracleQuery    *obs.Histogram
	sessionDelta   *obs.Histogram
	sessionPublish *obs.Histogram
}

func newLatencies() *latencies {
	return &latencies{
		queueWait:      obs.NewHistogram(),
		build:          obs.NewHistogram(),
		persist:        obs.NewHistogram(),
		storeGet:       obs.NewHistogram(),
		storePut:       obs.NewHistogram(),
		oracleQuery:    obs.NewHistogram(),
		sessionDelta:   obs.NewHistogram(),
		sessionPublish: obs.NewHistogram(),
	}
}

// storeObserver is the hook handed to store.SetObserver.
func (l *latencies) storeObserver(op store.Op, d time.Duration) {
	switch op {
	case store.OpGet:
		l.storeGet.Record(d)
	case store.OpPut:
		l.storePut.Record(d)
	}
}

// LatencySnapshot is the latency block of GET /metrics: p50/p90/p99/max/mean
// summaries of every histogram, in milliseconds. The same obs.Summary shape
// is emitted by ftbench -benchjson, so dashboards read one schema.
type LatencySnapshot struct {
	// QueueWait is time from submission to a worker picking the job up.
	QueueWait obs.Summary `json:"queue_wait"`
	// Build is successful builds' wall-clock duration.
	Build obs.Summary `json:"build"`
	// Persist is the durable-store write at the end of a successful build
	// (zero-count with the store disabled).
	Persist obs.Summary `json:"persist"`
	// StoreGet and StorePut are the disk tier's per-operation latencies,
	// recorded by the store itself on every call.
	StoreGet obs.Summary `json:"store_get"`
	StorePut obs.Summary `json:"store_put"`
	// OracleQuery is the sampled latency of fault-set oracle queries inside
	// builds (1 in 8 queries is timed to keep overhead negligible).
	OracleQuery obs.Summary `json:"oracle_query"`
	// SessionDelta is the per-batch wall-clock duration of session delta
	// applications: the incremental engine's validation, mutation and
	// suffix repair.
	SessionDelta obs.Summary `json:"session_delta"`
	// SessionPublish is the duration of publishing a session's state after
	// a batch (and at create): the snapshot with its one digest hash, and
	// the memory-cache insert.
	SessionPublish obs.Summary `json:"session_publish"`
}

func (l *latencies) snapshot() LatencySnapshot {
	return LatencySnapshot{
		QueueWait:      l.queueWait.Summarize(),
		Build:          l.build.Summarize(),
		Persist:        l.persist.Summarize(),
		StoreGet:       l.storeGet.Summarize(),
		StorePut:       l.storePut.Summarize(),
		OracleQuery:    l.oracleQuery.Summarize(),
		SessionDelta:   l.sessionDelta.Summarize(),
		SessionPublish: l.sessionPublish.Summarize(),
	}
}
