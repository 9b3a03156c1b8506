package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/ftspanner/ftspanner/internal/cluster"
	"github.com/ftspanner/ftspanner/internal/service"
)

// replica is one in-process ftserve: a service with a durable store in its
// own fresh directory, optionally fronted by a cluster node, listening on a
// loopback port.
type replica struct {
	svc  *service.Server
	node *cluster.Node // nil for a single-node server
	srv  *http.Server
	addr string
	base string // "http://" + addr
	dir  string
	done chan struct{} // closed when Serve returns
}

// jobRetention bounds how long finished jobs stay addressable. A run
// submits thousands of jobs, each holding its input graph and result; at
// the 15-minute default every one of them would stay in memory for the
// whole run. The clients read a job within milliseconds of its end, and a
// short retention keeps the retained jobs, whose number is throughput
// times retention, a small part of the resident set.
const jobRetention = 500 * time.Millisecond

// startReplicas starts n replicas with Workers = workers, the default LRU
// and a store under dir. With n > 1 they form a fleet: every replica fronts
// its service with a cluster node over the full peer list, anti-entropy
// sync off.
func startReplicas(dir string, n, workers int) ([]*replica, error) {
	lns := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i], peers[i] = ln, ln.Addr().String()
	}
	reps := make([]*replica, 0, n)
	fail := func(err error) ([]*replica, error) {
		stopReplicas(reps)
		for _, l := range lns[len(reps):] {
			l.Close()
		}
		return nil, err
	}
	for i, ln := range lns {
		sdir := filepath.Join(dir, fmt.Sprintf("store%d", i))
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return fail(err)
		}
		svc, err := service.New(service.Config{Workers: workers, StoreDir: sdir, JobRetention: jobRetention})
		if err != nil {
			return fail(fmt.Errorf("replica %d: %w", i, err))
		}
		r := &replica{svc: svc, addr: peers[i], base: "http://" + peers[i], dir: sdir, done: make(chan struct{})}
		var h http.Handler = svc
		if n > 1 {
			node, err := cluster.New(cluster.Config{Self: peers[i], Peers: peers, Local: svc})
			if err != nil {
				svc.Close()
				return fail(fmt.Errorf("replica %d: %w", i, err))
			}
			r.node, h = node, node
		}
		r.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
		reps = append(reps, r)
		go func(r *replica, ln net.Listener) {
			defer close(r.done)
			if err := r.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "ftload: serve %s: %v\n", r.addr, err)
			}
		}(r, ln)
	}
	return reps, nil
}

// stopReplicas shuts every replica down, waits for its serve loop to end
// and removes its store.
func stopReplicas(reps []*replica) {
	for _, r := range reps {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := r.srv.Shutdown(ctx); err != nil {
			r.srv.Close()
		}
		cancel()
		<-r.done
		if r.node != nil {
			r.node.Close()
		}
		r.svc.Close()
		os.RemoveAll(r.dir)
	}
}

// serverMetrics is the part of GET /metrics the benchmark reads: the
// service counters and, on a fleet node, the cluster block.
type serverMetrics struct {
	service.MetricsSnapshot
	cluster.ClusterMetrics
}

// scrape reads every replica's /metrics.
func scrape(c *http.Client, reps []*replica) ([]serverMetrics, error) {
	out := make([]serverMetrics, len(reps))
	for i, r := range reps {
		if err := getJSON(c, r.base+"/metrics", &out[i]); err != nil {
			return nil, fmt.Errorf("metrics %s: %w", r.addr, err)
		}
	}
	return out, nil
}

// counters sums the fleet counters the ledger reads across replicas.
type counters struct {
	builds, submitted, cacheHits, storeHits, storeWrites   int64
	routedLocal, routedRemote, hedged, retries, peerErrors int64
}

func sum(ms []serverMetrics) counters {
	var c counters
	for _, m := range ms {
		c.builds += m.BuildsTotal
		c.submitted += m.JobsSubmitted
		c.cacheHits += m.CacheHits
		c.storeHits += m.StoreHits
		c.storeWrites += m.StoreWrites
		c.routedLocal += m.RoutedLocalTotal
		c.routedRemote += m.RoutedRemoteTotal
		c.hedged += m.HedgedTotal
		c.retries += m.RetriesTotal
		c.peerErrors += m.PeerErrorsTotal
	}
	return c
}

func (a counters) minus(b counters) counters {
	return counters{
		builds: a.builds - b.builds, submitted: a.submitted - b.submitted,
		cacheHits: a.cacheHits - b.cacheHits, storeHits: a.storeHits - b.storeHits,
		storeWrites: a.storeWrites - b.storeWrites,
		routedLocal: a.routedLocal - b.routedLocal, routedRemote: a.routedRemote - b.routedRemote,
		hedged: a.hedged - b.hedged, retries: a.retries - b.retries, peerErrors: a.peerErrors - b.peerErrors,
	}
}
