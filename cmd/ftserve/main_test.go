package main

import (
	"strings"
	"testing"
	"time"
)

func TestParseArgsDefaults(t *testing.T) {
	opts, err := parseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if opts.addr != ":8437" {
		t.Errorf("default addr %q", opts.addr)
	}
	if opts.cfg.Workers != 4 || opts.cfg.QueueDepth != 64 || opts.cfg.CacheEntries != 128 || opts.cfg.MaxBodyBytes != 8<<20 {
		t.Errorf("default config %+v", opts.cfg)
	}
	if opts.drainTimeout != 30*time.Second {
		t.Errorf("default drain timeout %v, want 30s", opts.drainTimeout)
	}
	if !strings.HasPrefix(opts.cfg.Version, version) {
		t.Errorf("version stamp %q does not start with %q", opts.cfg.Version, version)
	}
}

func TestParseArgsObservabilityFlags(t *testing.T) {
	opts, err := parseArgs([]string{"-drain-timeout", "90s"})
	if err != nil {
		t.Fatal(err)
	}
	if opts.drainTimeout != 90*time.Second {
		t.Errorf("parsed drain timeout %v, want 90s", opts.drainTimeout)
	}
}

func TestParseArgsSessionFlags(t *testing.T) {
	opts, err := parseArgs([]string{"-session-retention", "5m", "-max-sessions", "8"})
	if err != nil {
		t.Fatal(err)
	}
	if opts.cfg.SessionRetention != 5*time.Minute || opts.cfg.MaxSessions != 8 {
		t.Errorf("parsed session config %+v", opts.cfg)
	}
	// Zero values defer to the service defaults; negatives mean
	// keep-forever / unlimited and must parse.
	opts, err = parseArgs([]string{"-session-retention", "-1s", "-max-sessions", "-1"})
	if err != nil {
		t.Fatal(err)
	}
	if opts.cfg.SessionRetention >= 0 || opts.cfg.MaxSessions != -1 {
		t.Errorf("parsed negative session config %+v", opts.cfg)
	}
}

func TestParseArgsOverrides(t *testing.T) {
	opts, err := parseArgs([]string{"-addr", "127.0.0.1:9000", "-workers", "8", "-queue", "2", "-cache", "16", "-max-body", "1024"})
	if err != nil {
		t.Fatal(err)
	}
	if opts.addr != "127.0.0.1:9000" || opts.cfg.Workers != 8 || opts.cfg.QueueDepth != 2 ||
		opts.cfg.CacheEntries != 16 || opts.cfg.MaxBodyBytes != 1024 {
		t.Errorf("parsed %+v", opts)
	}
}

func TestParseArgsStoreFlags(t *testing.T) {
	opts, err := parseArgs([]string{"-store-dir", "/tmp/ftstore", "-store-max-bytes", "1048576"})
	if err != nil {
		t.Fatal(err)
	}
	if opts.cfg.StoreDir != "/tmp/ftstore" || opts.cfg.StoreMaxBytes != 1<<20 {
		t.Errorf("store config %+v", opts.cfg)
	}
}

func TestParseArgsRejectsBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-workers", "0"},
		{"-queue", "-1"},
		{"-cache", "0"},
		{"-max-body", "0"},
		{"-store-max-bytes", "0"},
		{"-drain-timeout", "0s"},
		{"-drain-timeout", "-5s"},
		{"stray"},
		{"-no-such-flag"},
	} {
		if _, err := parseArgs(args); err == nil {
			t.Errorf("parseArgs(%v) accepted invalid input", args)
		}
	}
	// The per-class queue caps and the wait budget are gone with the
	// priority classes.
	for _, args := range [][]string{{"-queue-caps", "x"}, {"-wait-budget", "1s"}} {
		if _, err := parseArgs(args); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("parseArgs(%v) = %v, want an unknown-flag error", args, err)
		}
	}
}

// TestHardenedServerTimeouts pins the slowloris fix: the public (and
// pprof/cluster) listeners must bound header reads and idle keep-alives,
// while WriteTimeout stays zero so long-lived NDJSON event streams are
// never severed. The old code built http.Server{Addr, Handler} with every
// timeout zero.
func TestHardenedServerTimeouts(t *testing.T) {
	srv := hardenedServer(":0", nil)
	if srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0 (slowloris guard)", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0", srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0 (event streams are long-lived)", srv.WriteTimeout)
	}
}

func TestParseArgsFleetFlags(t *testing.T) {
	opts, err := parseArgs([]string{
		"-addr", "10.0.0.1:8437",
		"-peers", "10.0.0.1:8437, 10.0.0.2:8437,10.0.0.3:8437",
		"-cluster-poll", "250ms", "-sync-interval", "10s",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(opts.peers) != 3 || opts.peers[1] != "10.0.0.2:8437" {
		t.Errorf("parsed peers %v", opts.peers)
	}
	if opts.self != "10.0.0.1:8437" {
		t.Errorf("self defaulted to %q, want the -addr value", opts.self)
	}
	if opts.clusterPoll != 250*time.Millisecond || opts.syncInterval != 10*time.Second {
		t.Errorf("cluster intervals %v / %v", opts.clusterPoll, opts.syncInterval)
	}

	opts, err = parseArgs([]string{"-peers", "a:1,b:2", "-self", "c:3"})
	if err != nil {
		t.Fatal(err)
	}
	if opts.self != "c:3" {
		t.Errorf("explicit -self %q", opts.self)
	}

	// No -peers leaves the fleet disabled regardless of the other flags.
	opts, err = parseArgs([]string{"-self", "a:1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(opts.peers) != 0 {
		t.Errorf("peers %v without -peers flag", opts.peers)
	}

	for _, args := range [][]string{
		{"-peers", "a:1,,b:2"},
		{"-peers", "a:1", "-cluster-poll", "0s"},
		{"-peers", "a:1", "-sync-interval", "-1s"},
	} {
		if _, err := parseArgs(args); err == nil {
			t.Errorf("parseArgs(%v) accepted invalid fleet config", args)
		}
	}
}
