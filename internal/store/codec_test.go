package store

import (
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"
)

// sampleRecord is a representative fully-populated record.
func sampleRecord() *Record {
	return &Record{
		Key:           "v1|0123abcd|3|2|vertex|greedy|0",
		NumVertices:   30,
		InputEdges:    150,
		SpannerDigest: "deadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef",
		Kept:          []int{0, 5, 3, 149, 7, 7},
		Stats: Stats{
			EdgesScanned:     150,
			OracleCalls:      150,
			Dijkstras:        4321,
			WitnessHits:      10,
			WitnessMisses:    90,
			SpecBatches:      3,
			SpecQueries:      12,
			SpecHits:         11,
			SpecWaste:        1,
			SpecRounds:       2,
			SpecRequeries:    1,
			WitnessSeedTries: 8,
			WitnessSeedHits:  5,
			DurationNS:       1_234_567_890,
		},
	}
}

// randomRecord draws a structurally valid record from rng.
func randomRecord(rng *rand.Rand) *Record {
	letters := func(n int) string {
		b := make([]byte, rng.Intn(n))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	m := 1 + rng.Intn(500)
	kept := make([]int, rng.Intn(m))
	for i := range kept {
		kept[i] = rng.Intn(m)
	}
	return &Record{
		Key:           letters(80),
		NumVertices:   rng.Intn(1000),
		InputEdges:    m,
		SpannerDigest: letters(65),
		Kept:          kept,
		Stats: Stats{
			EdgesScanned:     int64(rng.Intn(1 << 20)),
			OracleCalls:      rng.Int63n(1 << 40),
			Dijkstras:        rng.Int63n(1 << 40),
			WitnessHits:      rng.Int63n(1 << 30),
			WitnessMisses:    rng.Int63n(1 << 30),
			SpecBatches:      rng.Int63n(1 << 30),
			SpecQueries:      rng.Int63n(1 << 30),
			SpecHits:         rng.Int63n(1 << 30),
			SpecWaste:        rng.Int63n(1 << 30),
			SpecRounds:       rng.Int63n(1 << 30),
			SpecRequeries:    rng.Int63n(1 << 30),
			WitnessSeedTries: rng.Int63n(1 << 30),
			WitnessSeedHits:  rng.Int63n(1 << 30),
			DurationNS:       rng.Int63n(1 << 50),
		},
	}
}

// recordsEqual compares records treating nil and empty Kept as equal (an
// empty keep list round-trips as empty, not nil-vs-empty sensitive).
func recordsEqual(a, b *Record) bool {
	if len(a.Kept) == 0 && len(b.Kept) == 0 {
		a2, b2 := *a, *b
		a2.Kept, b2.Kept = nil, nil
		return reflect.DeepEqual(&a2, &b2)
	}
	return reflect.DeepEqual(a, b)
}

func TestCodecRoundTrip(t *testing.T) {
	rec := sampleRecord()
	got, err := Decode(Encode(rec))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !recordsEqual(rec, got) {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", rec, got)
	}
}

func TestCodecRoundTripRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		rec := randomRecord(rng)
		got, err := Decode(Encode(rec))
		if err != nil {
			t.Fatalf("record %d: decode: %v (record %+v)", i, err, rec)
		}
		if !recordsEqual(rec, got) {
			t.Fatalf("record %d round trip mismatch:\n in  %+v\n out %+v", i, rec, got)
		}
	}
}

func TestCodecEmptyKept(t *testing.T) {
	rec := &Record{Key: "k", NumVertices: 5, InputEdges: 4, SpannerDigest: "d"}
	got, err := Decode(Encode(rec))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got.Kept) != 0 {
		t.Fatalf("empty keep list decoded to %v", got.Kept)
	}
}

// TestCodecEveryByteFlipDetected is the CRC/header integrity property: the
// payload is CRC-covered and every header field is validated, so flipping
// ANY single byte of a valid encoding must fail decoding — no silent
// acceptance of corrupt data.
func TestCodecEveryByteFlipDetected(t *testing.T) {
	data := Encode(sampleRecord())
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x41
		if _, err := Decode(mut); err == nil {
			t.Errorf("flipping byte %d of %d went undetected", i, len(data))
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("flipping byte %d: error %v does not wrap ErrCorrupt", i, err)
		}
	}
}

// TestCodecEveryTruncationDetected: every strict prefix must be rejected.
func TestCodecEveryTruncationDetected(t *testing.T) {
	data := Encode(sampleRecord())
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation to %d of %d bytes: got err %v, want ErrCorrupt", n, len(data), err)
		}
	}
	// ...and so must trailing garbage.
	if _, err := Decode(append(append([]byte(nil), data...), 0x00)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("one appended byte: got err %v, want ErrCorrupt", err)
	}
}

func TestCodecWrongVersionRejected(t *testing.T) {
	data := Encode(sampleRecord())
	data[4], data[5] = 0xFF, 0x7F // version 0x7FFF
	if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("future codec version: got err %v, want ErrCorrupt", err)
	}
}

func TestCodecGarbageNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		buf := make([]byte, rng.Intn(256))
		rng.Read(buf)
		if rng.Intn(2) == 0 && len(buf) >= 4 {
			copy(buf, magic) // let some inputs get past the magic check
		}
		_, _ = Decode(buf) // must not panic; error is expected and fine
	}
}

// TestCodecHostileCounts pins the allocation guards: a forged payload
// claiming a huge kept count (with a valid CRC) must be rejected by the
// remaining-bytes bound, not trusted into a giant allocation.
func TestCodecHostileCounts(t *testing.T) {
	rec := sampleRecord()
	rec.Kept = nil
	data := Encode(rec)
	// Locate the kept-count byte by re-encoding with one kept edge and
	// diffing lengths is fragile; instead craft a payload directly.
	payload := appendString(nil, "k")
	payload = append(payload, 0, 0) // vertices=0, edges=0
	payload = appendString(payload, "")
	payload = append(payload, 0xFF, 0xFF, 0xFF, 0x7F) // kept count ~ 2^28
	data = make([]byte, headerSize, headerSize+len(payload))
	copy(data, magic)
	data[4] = Version
	data[8] = byte(len(payload))
	// CRC over payload, little-endian at offset 12.
	crc := crc32.ChecksumIEEE(payload)
	data[12], data[13], data[14], data[15] = byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24)
	data = append(data, payload...)
	if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile kept count: got err %v, want ErrCorrupt", err)
	}
}

// goldenV2Reserved is a version-2 record as written while counter slot 11
// still held a pipeline depth (4 here). Slot 11 is now reserved: it must
// decode with no error to the same kept list and digest, be skipped, and be
// written back as 0.
const goldenV2Reserved = "465453520200000082000000bda5a9c51f76317c30313233616263647c337c327c76" +
	"65727465787c6772656564797c301e9601406465616462656566646561646265656664" +
	"656164626565666465616462656566646561646265656664656164626565666465616462" +
	"656566646561646265656605000503950107ac02c402c24314b40106181602040208100aa48bb09909"

func TestCodecReservedSlotGolden(t *testing.T) {
	data, err := hex.DecodeString(goldenV2Reserved)
	if err != nil {
		t.Fatal(err)
	}
	want := &Record{
		Key:           "v1|0123abcd|3|2|vertex|greedy|0",
		NumVertices:   30,
		InputEdges:    150,
		SpannerDigest: "deadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef",
		Kept:          []int{0, 5, 3, 149, 7},
		Stats: Stats{
			EdgesScanned: 150, OracleCalls: 162, Dijkstras: 4321,
			WitnessHits: 10, WitnessMisses: 90,
			SpecBatches: 3, SpecQueries: 12, SpecHits: 11, SpecWaste: 1,
			SpecRounds: 2, SpecRequeries: 1,
			WitnessSeedTries: 8, WitnessSeedHits: 5,
			DurationNS: 1_234_567_890,
		},
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode golden v2 record: %v", err)
	}
	if !recordsEqual(want, got) {
		t.Fatalf("golden decode mismatch:\n want %+v\n got  %+v", want, got)
	}

	// Re-encoding keeps the layout byte for byte except slot 11, now 0: the
	// payload differs in exactly that one varint byte (and so in the CRC).
	re := Encode(got)
	if len(re) != len(data) {
		t.Fatalf("re-encoded length %d, golden %d", len(re), len(data))
	}
	var diff []int
	for i := headerSize; i < len(re); i++ {
		if re[i] != data[i] {
			diff = append(diff, i)
		}
	}
	if len(diff) != 1 || data[diff[0]] != 0x08 || re[diff[0]] != 0x00 {
		t.Fatalf("re-encoded payload differs at %v, want only the reserved slot (varint 4 -> 0)", diff)
	}

	// A peer's record pulled during anti-entropy goes through the same
	// decoder: it imports and serves with nothing quarantined.
	s := mustOpen(t, t.TempDir(), -1)
	if _, imported, err := s.ImportEncoded(data); err != nil || !imported {
		t.Fatalf("ImportEncoded(golden) = (%v, %v)", imported, err)
	}
	if rec, ok := s.Get(want.Key); !ok || !recordsEqual(want, rec) {
		t.Fatalf("imported golden record: ok=%v got=%+v", ok, rec)
	}
	if m := s.Snapshot(); m.CorruptTotal != 0 || len(m.Quarantined) != 0 {
		t.Fatalf("golden record quarantined: %+v", m)
	}
}
