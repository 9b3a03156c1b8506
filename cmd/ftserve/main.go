// Command ftserve runs the fault-tolerant spanner build service: an
// HTTP/JSON API that queues build jobs onto one FIFO queue drained by a
// bounded worker pool, serves repeated requests from an in-memory LRU result
// cache, and (with -store-dir) persists results to a durable
// content-addressed store so restarts come up warm.
//
// Usage:
//
//	ftserve [-addr :8437] [-workers 4] [-queue 64]
//	        [-cache 128] [-store-dir DIR] [-store-max-bytes 268435456]
//	        [-max-body 8388608] [-retention 15m]
//	        [-session-retention 30m] [-max-sessions 64]
//	        [-drain-timeout 30s] [-pprof addr]
//	        [-peers host:port,...] [-self host:port] [-cluster-poll 1s] [-sync-interval 30s]
//
// With -peers the process joins a digest-affinity replica fleet: a
// consistent-hash ring over graph digests routes every job to its owning
// replica, so caches, dedup, and the durable store stay shard-local. When
// -self (default -addr) appears in -peers the process is a combined
// router+worker; otherwise it is a pure router, whose local service still
// answers its sessions and the peer endpoints. -max-body bounds the fleet
// node's body reads as well as the service's.
//
// On SIGINT/SIGTERM the server drains: new submissions get 503 with a
// Retry-After estimate, queued jobs are cancelled, and running builds get
// up to -drain-timeout to finish and persist before the process exits. A
// second signal cancels the remaining builds immediately.
//
// See the repository README for the endpoint reference, curl examples, and
// the profiling workflow behind the -pprof flag.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"github.com/ftspanner/ftspanner/internal/cluster"
	"github.com/ftspanner/ftspanner/internal/service"
)

// version is the build stamp reported in /metrics and /healthz; module
// build info (commit, dirty flag) is appended when the toolchain embeds it.
const version = "ftserve/0.6"

// buildVersion renders the full stamp.
func buildVersion() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				return version + "+" + s.Value[:12]
			}
		}
	}
	return version
}

// options is the parsed command line.
type options struct {
	addr         string
	pprofAddr    string
	drainTimeout time.Duration
	peers        []string
	self         string
	clusterPoll  time.Duration
	syncInterval time.Duration
	cfg          service.Config
}

// parseArgs parses argv (without the program name) into options.
func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("ftserve", flag.ContinueOnError)
	var opts options
	fs.StringVar(&opts.addr, "addr", ":8437", "listen address")
	fs.IntVar(&opts.cfg.Workers, "workers", 4, "build worker pool size")
	fs.IntVar(&opts.cfg.QueueDepth, "queue", 64, "job queue capacity; submissions beyond it get 503 with Retry-After")
	fs.IntVar(&opts.cfg.CacheEntries, "cache", 128, "result LRU cache entries")
	fs.StringVar(&opts.cfg.StoreDir, "store-dir", "",
		"directory of the durable content-addressed result store; empty disables persistence")
	fs.Int64Var(&opts.cfg.StoreMaxBytes, "store-max-bytes", 256<<20,
		"on-disk byte bound of the result store (LRU-evicted in the background); negative for unbounded")
	fs.Int64Var(&opts.cfg.MaxBodyBytes, "max-body", 8<<20, "request body size limit in bytes")
	fs.DurationVar(&opts.cfg.JobRetention, "retention", 15*time.Minute,
		"how long finished jobs stay addressable before eviction (0 for the default, negative to keep forever)")
	fs.DurationVar(&opts.cfg.SessionRetention, "session-retention", 0,
		"how long an idle live session stays open before eviction (0 for the 30m default, negative to keep forever)")
	fs.IntVar(&opts.cfg.MaxSessions, "max-sessions", 0,
		"ceiling of concurrently open live sessions; creations beyond it get 429 (0 for the default of 64, negative for unlimited)")
	fs.DurationVar(&opts.drainTimeout, "drain-timeout", 30*time.Second,
		"how long a graceful shutdown (SIGINT/SIGTERM) waits for running builds to finish before cancelling them")
	fs.StringVar(&opts.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
	var peers string
	fs.StringVar(&peers, "peers", "",
		"comma-separated fleet peer list (host:port,...); enables digest-affinity routing across the replicas")
	fs.StringVar(&opts.self, "self", "",
		"this replica's advertised host:port within -peers (default -addr); absent from -peers means pure-router mode")
	fs.DurationVar(&opts.clusterPoll, "cluster-poll", time.Second,
		"peer health/queue summary poll interval behind fleet backpressure and drain-aware routing")
	fs.DurationVar(&opts.syncInterval, "sync-interval", 30*time.Second,
		"anti-entropy sweep interval: how often this replica pulls store records it is missing from peers (0 disables)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() != 0 {
		return options{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if opts.cfg.Workers < 1 || opts.cfg.QueueDepth < 1 || opts.cfg.CacheEntries < 1 || opts.cfg.MaxBodyBytes < 1 {
		return options{}, fmt.Errorf("workers, queue, cache, and max-body must all be positive")
	}
	if opts.cfg.StoreMaxBytes == 0 {
		return options{}, fmt.Errorf("store-max-bytes must be positive (or negative for unbounded)")
	}
	if opts.drainTimeout <= 0 {
		return options{}, fmt.Errorf("drain-timeout must be positive, got %v", opts.drainTimeout)
	}
	if peers != "" {
		for _, p := range strings.Split(peers, ",") {
			p = strings.TrimSpace(p)
			if p == "" {
				return options{}, fmt.Errorf("peers: empty entry in %q", peers)
			}
			opts.peers = append(opts.peers, p)
		}
		if opts.clusterPoll <= 0 {
			return options{}, fmt.Errorf("cluster-poll must be positive, got %v", opts.clusterPoll)
		}
		if opts.syncInterval < 0 {
			return options{}, fmt.Errorf("sync-interval must be non-negative, got %v", opts.syncInterval)
		}
		if opts.self == "" {
			opts.self = opts.addr
		}
	}
	opts.cfg.Version = buildVersion()
	return opts, nil
}

// hardenedServer builds an http.Server that a slow-header client cannot
// pin forever (slowloris): connections must deliver their headers and turn
// over idle keep-alives within a bound. WriteTimeout stays zero on purpose
// — NDJSON event streams are long-lived and an overall write deadline
// would sever them mid-job. A stalled request body is bounded by the
// service itself (service.Server.ReadBody's read deadline).
func hardenedServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// pprofMux returns a mux serving exactly the net/http/pprof handlers,
// avoiding the package's DefaultServeMux side-effect registration.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() {
	opts, err := parseArgs(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		log.Printf("ftserve: %v", err)
		os.Exit(2)
	}
	os.Exit(run(opts))
}

// run starts the service and the HTTP listener and blocks until shutdown.
// It is the single exit path of the command: the service is always closed
// before returning, so a listener error can no longer strand the worker
// pool or leave the durable store open mid-write.
func run(opts options) int {
	svc, err := service.New(opts.cfg)
	if err != nil {
		log.Printf("ftserve: %v", err)
		return 1
	}
	defer svc.Close()

	// With -peers the public listener fronts the fleet node, which routes
	// by graph digest and serves the local ring segment and every
	// replica-local route through svc.
	var handler http.Handler = svc
	if len(opts.peers) > 0 {
		node, err := cluster.New(cluster.Config{
			Self:         opts.self,
			Peers:        opts.peers,
			Local:        svc,
			PollInterval: opts.clusterPoll,
			SyncInterval: opts.syncInterval,
		})
		if err != nil {
			log.Printf("ftserve: %v", err)
			return 1
		}
		defer node.Close()
		handler = node
		mode := "router+worker"
		if node.Ring().Index(opts.self) < 0 {
			mode = "pure router"
		}
		log.Printf("ftserve: fleet of %d peers, self=%s (%s)", len(node.Ring().Peers()), opts.self, mode)
	}

	httpSrv := hardenedServer(opts.addr, handler)

	// Profiling is opt-in and served on its own listener so the debug
	// surface never shares a port with the public job API. It gets the
	// same hardened timeouts as the public listener.
	if opts.pprofAddr != "" {
		go func() {
			log.Printf("ftserve: pprof on http://%s/debug/pprof/", opts.pprofAddr)
			if err := hardenedServer(opts.pprofAddr, pprofMux()).ListenAndServe(); err != nil {
				log.Printf("ftserve: pprof server: %v", err)
			}
		}()
	}

	if opts.cfg.StoreDir != "" {
		log.Printf("ftserve: durable result store at %s (max %d bytes)", opts.cfg.StoreDir, opts.cfg.StoreMaxBytes)
	}
	log.Printf("ftserve: listening on %s (workers=%d queue=%d cache=%d)",
		opts.addr, opts.cfg.Workers, opts.cfg.QueueDepth, opts.cfg.CacheEntries)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()

	// Buffered for two deliveries: the first signal starts the drain, the
	// second cancels it.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("ftserve: %v", err)
			return 1
		}
		return 0
	case s := <-sig:
		log.Printf("ftserve: %v: draining (up to %v; signal again to cancel running builds)", s, opts.drainTimeout)
	}

	// Graceful drain: refuse new submissions (503 + Retry-After), cancel
	// queued jobs, and give running builds until the timeout to finish and
	// persist. A second signal force-cancels whatever is still running; the
	// deferred Close still waits for those builds to record their terminal
	// states before the store shuts.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), opts.drainTimeout)
	defer cancelDrain()
	go func() {
		s := <-sig
		log.Printf("ftserve: %v: cancelling in-flight builds", s)
		cancelDrain()
	}()

	// The HTTP listener stays open for the whole drain window: submissions
	// answer 503 + Retry-After from the service layer, /healthz reports
	// "draining" so load balancers route elsewhere, and status polls and
	// event streams keep working until their jobs reach a terminal state.
	svc.StartDrain()
	if err := svc.Drain(drainCtx); err != nil {
		log.Printf("ftserve: drain: %v", err)
	} else {
		log.Printf("ftserve: drained cleanly")
	}

	// Every job is terminal now, and closing the service ends each live
	// session with a "server closed" event, so every open event stream has
	// its terminal event and flushes quickly; cut any connection that
	// lingers past the grace rather than wait forever.
	svc.Close()
	shutCtx, cancelShut := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancelShut()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		_ = httpSrv.Close()
	}
	return 0
}
