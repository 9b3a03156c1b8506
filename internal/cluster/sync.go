package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"github.com/ftspanner/ftspanner/internal/store"
)

// Anti-entropy: each replica periodically pulls record files it is missing
// from its peers. The records are CRC-self-verifying (the store codec
// rejects any torn or corrupt transfer), so pulls are blind — no digest
// negotiation, no versioning, no coordination. The sweep is what turns
// "the fleet eventually holds every result somewhere reachable" into "a
// restarted or re-sharded replica warms itself": after a ring change the
// new owner of a segment pulls the old owner's records on the next sweep.

const (
	// maxListingBytes bounds a peer's record-listing response. A listing
	// entry is ~100 bytes, so 8 MiB covers tens of thousands of records;
	// anything larger is a misbehaving or hostile peer, not a big store.
	maxListingBytes = 8 << 20
	// maxRecordBytes bounds a single pulled record, well above the service
	// layer's own ~1 MiB generated-graph cap times the record overhead. A
	// peer advertising or sending more is refusing to play by the store's
	// rules and must not be able to balloon this replica's memory.
	maxRecordBytes = 64 << 20
)

// SweepResult summarizes one anti-entropy pass.
type SweepResult struct {
	// Peers is how many peers answered their record listing.
	Peers int
	// Pulled is how many missing records were fetched and imported.
	Pulled int
	// Rejected is how many fetched records the codec refused (corrupt or
	// torn transfer) — they are re-pulled on the next sweep.
	Rejected int
	// Errors is how many individual record pulls failed (bad advertised
	// size, transport error, non-200, oversized body). A failed pull skips
	// that record only; the sweep keeps going, so one poisoned or flaky
	// record cannot starve the rest of a peer's store.
	Errors int
}

// SweepOnce runs one full anti-entropy pass: list every peer's records,
// pull the ones the local store is missing, import through the verifying
// codec. A node without a local durable store sweeps nothing.
func (n *Node) SweepOnce(ctx context.Context) (SweepResult, error) {
	var res SweepResult
	st := n.cfg.Local.Store()
	if st == nil {
		return res, errors.New("cluster: local service has no durable store")
	}
	var firstErr error
	for idx, peer := range n.ring.Peers() {
		if idx == n.selfIdx {
			continue
		}
		if err := n.sweepPeer(ctx, peer, st, &res); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("peer %s: %w", peer, err)
			}
			continue
		}
		res.Peers++
	}
	n.syncSweeps.Add(1)
	n.syncPulled.Add(int64(res.Pulled))
	n.syncRejected.Add(int64(res.Rejected))
	n.syncErrors.Add(int64(res.Errors))
	return res, firstErr
}

// sweepPeer pulls one peer's missing records into st. Individual pull
// failures are counted in res.Errors and skipped — partial progress through
// a peer's listing beats aborting it — but a dead listing or a cancelled
// context still fails the peer as a whole.
func (n *Node) sweepPeer(ctx context.Context, peer string, st *store.Store, res *SweepResult) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+peer+"/v1/cluster/records", nil)
	if err != nil {
		return err
	}
	resp, err := n.api.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("record listing: status %d", resp.StatusCode)
	}
	var listing struct {
		Records []store.RecordInfo `json:"records"`
	}
	// The decoder reads until the JSON value ends, so an unbounded body is
	// an unbounded allocation; a peer cannot be trusted to stay small.
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxListingBytes)).Decode(&listing); err != nil {
		return fmt.Errorf("record listing: %w", err)
	}
	for _, rec := range listing.Records {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if st.HasFile(rec.Name) {
			continue
		}
		data, err := n.pullRecord(ctx, peer, rec)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			res.Errors++
			continue
		}
		if _, imported, err := st.ImportEncoded(data); err != nil {
			// Corrupt transfer: count it and move on — the record is
			// still on the peer, the next sweep retries.
			res.Rejected++
		} else if imported {
			res.Pulled++
		}
	}
	return nil
}

// pullRecord fetches one record file's raw bytes from peer, reading no more
// than the listing advertised. The name is peer-supplied and goes into a
// URL path, so it is escaped — a hostile listing must not be able to steer
// the request at a different endpoint.
func (n *Node) pullRecord(ctx context.Context, peer string, rec store.RecordInfo) ([]byte, error) {
	if rec.Size <= 0 || rec.Size > maxRecordBytes {
		return nil, fmt.Errorf("pull %s: advertised size %d out of range", rec.Name, rec.Size)
	}
	u := "http://" + peer + "/v1/cluster/records/" + url.PathEscape(rec.Name)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := n.api.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("pull %s: status %d", rec.Name, resp.StatusCode)
	}
	// Read one byte past the advertised size: exactly Size bytes is a
	// faithful transfer, more means the advertisement lied and the body is
	// discarded before it can grow without bound.
	data, err := io.ReadAll(io.LimitReader(resp.Body, rec.Size+1))
	if err != nil {
		return nil, fmt.Errorf("pull %s: %w", rec.Name, err)
	}
	if int64(len(data)) > rec.Size {
		return nil, fmt.Errorf("pull %s: body exceeds advertised size %d", rec.Name, rec.Size)
	}
	return data, nil
}

// syncLoop runs SweepOnce at SyncInterval until Close.
func (n *Node) syncLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-n.done:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), n.cfg.SyncInterval)
			_, _ = n.SweepOnce(ctx)
			cancel()
		}
	}
}
