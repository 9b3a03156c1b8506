// Package store persists completed spanner-build results on disk,
// content-addressed by build key: because every algorithm the service
// exposes is deterministic for a fixed input (the sampling baseline keys on
// its seed), a result is fully determined by the input graph's digest plus
// the build parameters, so it is safe to share across processes and
// restarts. Each record is one file holding the kept-edge IDs and build
// stats — not the graphs themselves — so stored results stay small (the
// paper's O(f^(1-1/k) n^(1+1/k)) size bound is the ceiling) and the spanner
// is reconstructed from the resubmitted input on read.
//
// The on-disk format is a versioned binary codec with a CRC-32 over the
// payload; writes are atomic (temp file + rename) and unreadable files are
// quarantined, never served.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// File layout, all integers little-endian:
//
//	offset 0  magic   "FTSR" (4 bytes)
//	       4  version uint16
//	       6  flags   uint16 (must be zero in version 1)
//	       8  paylen  uint32 (payload byte count)
//	      12  crc     uint32 (CRC-32/IEEE of the payload)
//	      16  payload
//
// The version-2 payload is a sequence of varint-coded fields (strings are
// uvarint length + bytes):
//
//	key, numVertices, inputEdges, spannerDigest,
//	len(kept), kept[0..], then the fifteen Stats counter slots.
//
// Slots 3 and 4 once held the witness cache's hits and misses, slot 11 a
// speculative pipeline depth, and slots 12 and 13 the witness cache's
// structural seed trials and hits. They are reserved: writers put 0 there
// and readers skip them, so records written before and after those
// counters' removal decode alike, including those pulled from peers of
// either build during anti-entropy.
//
// Version 1 carried ten counters; readers reject it like any other unknown
// version, so pre-existing records are quarantined and rebuilt once (the
// store is a cache — rebuild-on-upgrade is the documented, self-healing
// path) rather than silently decoding with the new counters zeroed, which
// would misreport restored jobs' stats (e.g. a spec hit rate of a false
// 1.0).
const (
	magic      = "FTSR"
	Version    = 2
	headerSize = 16

	// maxPayload rejects absurd length fields before any allocation; real
	// records are a few bytes per kept edge.
	maxPayload = 1 << 30
	// maxCount bounds decoded vertex/edge counts so hostile input cannot
	// smuggle overflowing values through the uvarint decoder.
	maxCount = 1 << 40
)

// ErrCorrupt tags every decode failure: truncated data, bad magic, an
// unknown codec version, a CRC mismatch, or a payload that does not parse.
// Callers quarantine the backing file and rebuild.
var ErrCorrupt = errors.New("store: corrupt record")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// Stats mirrors the build instrumentation counters worth persisting
// alongside a result (core.Stats, flattened to fixed integer fields so the
// codec does not depend on the core package).
type Stats struct {
	EdgesScanned  int64
	OracleCalls   int64
	Dijkstras     int64
	SpecBatches   int64
	SpecQueries   int64
	SpecHits      int64
	SpecWaste     int64
	SpecRounds    int64
	SpecRequeries int64
	DurationNS    int64
}

// Record is one persisted build result. Key is the caller's canonical build
// key (digest + parameters); NumVertices/InputEdges pin the input graph the
// kept-edge IDs index into; SpannerDigest lets the reader verify the
// reconstructed spanner byte-for-byte.
type Record struct {
	Key           string
	NumVertices   int
	InputEdges    int
	SpannerDigest string
	Kept          []int
	Stats         Stats
}

// Encode serializes rec into the versioned on-disk format.
func Encode(rec *Record) []byte {
	payload := appendString(nil, rec.Key)
	payload = binary.AppendUvarint(payload, uint64(rec.NumVertices))
	payload = binary.AppendUvarint(payload, uint64(rec.InputEdges))
	payload = appendString(payload, rec.SpannerDigest)
	payload = binary.AppendUvarint(payload, uint64(len(rec.Kept)))
	for _, id := range rec.Kept {
		payload = binary.AppendUvarint(payload, uint64(id))
	}
	for _, c := range rec.Stats.counters() {
		payload = binary.AppendVarint(payload, c)
	}

	buf := make([]byte, headerSize, headerSize+len(payload))
	copy(buf, magic)
	binary.LittleEndian.PutUint16(buf[4:], Version)
	binary.LittleEndian.PutUint16(buf[6:], 0)
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[12:], crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// counters lists the stats fields in codec order, with the reserved slots
// 3–4 and 11–13 written as 0.
func (s *Stats) counters() [15]int64 {
	return [15]int64{
		s.EdgesScanned, s.OracleCalls, s.Dijkstras, 0, 0,
		s.SpecBatches, s.SpecQueries, s.SpecHits, s.SpecWaste,
		s.SpecRounds, s.SpecRequeries, 0, 0, 0,
		s.DurationNS,
	}
}

// setCounters is the inverse of counters; the reserved slots 3–4 and 11–13
// are skipped.
func (s *Stats) setCounters(c [15]int64) {
	s.EdgesScanned, s.OracleCalls, s.Dijkstras = c[0], c[1], c[2]
	s.SpecBatches, s.SpecQueries, s.SpecHits, s.SpecWaste = c[5], c[6], c[7], c[8]
	s.SpecRounds, s.SpecRequeries = c[9], c[10]
	s.DurationNS = c[14]
}

// Decode parses a record written by Encode. Any deviation — truncation,
// trailing bytes, flipped bits, an unknown version — returns an error
// wrapping ErrCorrupt; it never panics on garbage.
func Decode(data []byte) (*Record, error) {
	if len(data) < headerSize {
		return nil, corruptf("short header: %d bytes", len(data))
	}
	if string(data[:4]) != magic {
		return nil, corruptf("bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != Version {
		return nil, corruptf("unknown codec version %d (want %d)", v, Version)
	}
	if f := binary.LittleEndian.Uint16(data[6:]); f != 0 {
		return nil, corruptf("unknown flags %#x", f)
	}
	paylen := binary.LittleEndian.Uint32(data[8:])
	if uint64(paylen) > maxPayload {
		return nil, corruptf("payload length %d over cap", paylen)
	}
	payload := data[headerSize:]
	if uint32(len(payload)) != paylen {
		return nil, corruptf("truncated: header promises %d payload bytes, have %d", paylen, len(payload))
	}
	if crc := crc32.ChecksumIEEE(payload); crc != binary.LittleEndian.Uint32(data[12:]) {
		return nil, corruptf("CRC mismatch")
	}

	d := decoder{buf: payload}
	rec := &Record{}
	rec.Key = d.string("key")
	rec.NumVertices = d.count("vertices")
	rec.InputEdges = d.count("input edges")
	rec.SpannerDigest = d.string("spanner digest")
	nKept := d.count("kept count")
	// Each kept ID costs at least one payload byte, so this bound rejects
	// hostile counts before allocating.
	if d.err == nil && nKept > len(d.buf)-d.off {
		d.fail("kept count %d exceeds remaining %d bytes", nKept, len(d.buf)-d.off)
	}
	if d.err == nil {
		rec.Kept = make([]int, 0, nKept)
		for i := 0; i < nKept && d.err == nil; i++ {
			id := d.count("kept id")
			if d.err == nil && id >= rec.InputEdges {
				d.fail("kept id %d out of range (input has %d edges)", id, rec.InputEdges)
			}
			rec.Kept = append(rec.Kept, id)
		}
	}
	var c [15]int64
	for i := range c {
		c[i] = d.varint("stats counter")
	}
	rec.Stats.setCounters(c)
	if d.err == nil && d.off != len(d.buf) {
		d.fail("%d trailing payload bytes", len(d.buf)-d.off)
	}
	if d.err != nil {
		return nil, d.err
	}
	return rec, nil
}

// decoder is a bounds-checked cursor over the payload; the first failure
// sticks and every later read returns zero values.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = corruptf(format, args...)
	}
}

func (d *decoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad %s uvarint", what)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad %s varint", what)
		return 0
	}
	d.off += n
	return v
}

// count decodes a non-negative integer bounded by maxCount, so it always
// fits an int — including on 32-bit platforms, where int(v) alone could
// wrap negative and bypass the downstream allocation guards.
func (d *decoder) count(what string) int {
	v := d.uvarint(what)
	if d.err == nil && (v > maxCount || uint64(int(v)) != v || int(v) < 0) {
		d.fail("%s %d over cap", what, v)
		return 0
	}
	return int(v)
}

func (d *decoder) string(what string) string {
	n := d.count(what + " length")
	if d.err != nil {
		return ""
	}
	if n > len(d.buf)-d.off {
		d.fail("%s length %d exceeds remaining %d bytes", what, n, len(d.buf)-d.off)
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}
