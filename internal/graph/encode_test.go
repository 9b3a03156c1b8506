package graph

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// encodeReference is the original fmt-based encoder, kept as the oracle the
// strconv encoder must match byte for byte: every digest, cache key and
// stored record ever produced hashes this exact text.
func encodeReference(g *Graph, w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "p %d %d\n", g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	for _, e := range g.edges {
		if _, err := fmt.Fprintf(bw, "e %d %d %s\n", e.U, e.V, strconv.FormatFloat(e.Weight, 'g', -1, 64)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// referenceDigest is Digest over the reference encoding.
func referenceDigest(g *Graph) string {
	h := sha256.New()
	_ = encodeReference(g, h)
	return hex.EncodeToString(h.Sum(nil))
}

// checkEncodingAgrees asserts Encode and Digest match the reference on g.
func checkEncodingAgrees(t *testing.T, g *Graph) {
	t.Helper()
	var got, want bytes.Buffer
	if err := g.Encode(&got); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if err := encodeReference(g, &want); err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("Encode differs from the reference on %v:\n got %.200q\nwant %.200q", g, got.Bytes(), want.Bytes())
	}
	if d, r := g.Digest(), referenceDigest(g); d != r {
		t.Fatalf("Digest %s, reference %s", d, r)
	}
}

func TestEncodeMatchesReference(t *testing.T) {
	weights := []float64{1, 0.1, 2.0 / 3, 1e-7, 1e21, 5e-324, math.MaxFloat64, 123456789, 1.5e-300}
	for _, n := range []int{0, 1} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) { checkEncodingAgrees(t, New(n)) })
	}
	for _, w := range weights {
		g := New(2)
		g.MustAddEdge(1, 0, w)
		t.Run(fmt.Sprintf("w=%g", w), func(t *testing.T) { checkEncodingAgrees(t, g) })
	}

	// A large vertex count, whose text spans many chunks and carries the
	// largest vertex IDs.
	big := New(1 << 20)
	for i := 0; i < 5000; i++ {
		w := weights[i%len(weights)]
		if i/len(weights)%2 == 1 {
			w = math.Nextafter(w, 1) // a neighbour needing all 17 digits
		}
		big.MustAddEdge(big.NumVertices()-1-i, i, w)
	}
	checkEncodingAgrees(t, big)
}

// failAfter fails every write once limit bytes have been accepted.
type failAfter struct{ limit, n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n+len(p) > f.limit {
		return 0, io.ErrShortWrite
	}
	f.n += len(p)
	return len(p), nil
}

func TestEncodeReportsWriteError(t *testing.T) {
	g := New(3000)
	for i := 1; i < g.NumVertices(); i++ {
		g.MustAddEdge(i-1, i, 0.5)
	}
	for _, limit := range []int{0, encodeChunk} {
		if err := g.Encode(&failAfter{limit: limit}); err == nil {
			t.Fatalf("limit %d: Encode swallowed the write error", limit)
		}
	}
}

// fuzzGraph decodes raw fuzz bytes into a graph on n vertices: each 12-byte
// record is two little-endian uint16 endpoints and a float64 weight's bits.
// Records AddEdge rejects (self-loops, parallel edges, bad weights) are
// skipped.
func fuzzGraph(n uint16, raw []byte) *Graph {
	g := New(int(n))
	for ; len(raw) >= 12 && n > 0; raw = raw[12:] {
		u := int(binary.LittleEndian.Uint16(raw) % n)
		v := int(binary.LittleEndian.Uint16(raw[2:]) % n)
		w := math.Float64frombits(binary.LittleEndian.Uint64(raw[4:]))
		_, _ = g.AddEdge(u, v, w)
	}
	return g
}

// fuzzRecord is one fuzzGraph edge record.
func fuzzRecord(u, v uint16, w float64) []byte {
	b := binary.LittleEndian.AppendUint16(nil, u)
	b = binary.LittleEndian.AppendUint16(b, v)
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(w))
}

// TestIntegerWeightLine checks appendEdgeLine's integer fast path against
// strconv's 'g' form on every integer it takes, [1, 1e6), and on weights at
// and beyond its bounds.
func TestIntegerWeightLine(t *testing.T) {
	want := func(w float64) string { return "e 3 4 " + strconv.FormatFloat(w, 'g', -1, 64) + "\n" }
	var buf []byte
	for i := 1; i <= 1e6; i++ {
		w := float64(i)
		buf = appendEdgeLine(buf[:0], 3, 4, w)
		if got := string(buf); got != want(w) {
			t.Fatalf("weight %d: line %q, want %q", i, got, want(w))
		}
	}
	for _, w := range []float64{
		0.5, 999999.5, 1e6, 1e6 + 1, 1e7, 1e21, math.Nextafter(1e6, 0), math.Nextafter(1, 0),
		math.Nextafter(1, 2), 1e-300, 5e-324, math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308 / 2,
		0, math.Copysign(0, -1), -1, -999999, math.MaxFloat64, math.Inf(1), math.NaN(),
	} {
		if got := string(appendEdgeLine(nil, 3, 4, w)); got != want(w) {
			t.Errorf("weight %v: line %q, want %q", w, got, want(w))
		}
	}
}

// FuzzEncodeDigest checks the strconv encoder against the fmt reference on
// arbitrary graphs — byte-identical text and equal digests — and that the
// encoding round-trips exactly through Decode.
func FuzzEncodeDigest(f *testing.F) {
	f.Add(uint16(3), append(fuzzRecord(0, 1, 1), fuzzRecord(1, 2, 0.1)...))
	f.Add(uint16(0), []byte{})
	f.Add(uint16(65535), append(fuzzRecord(65534, 0, math.MaxFloat64), fuzzRecord(7, 9, 5e-324)...))
	// Integral weights on both sides of appendEdgeLine's AppendInt bound.
	var ints []byte
	for i, w := range []float64{1, 7, 100000, 999999, 999999.5, 1e6, 1e6 + 1, 1e7, 0.5, math.Nextafter(1e6, 0)} {
		ints = append(ints, fuzzRecord(uint16(i), uint16(i+1), w)...)
	}
	f.Add(uint16(11), ints)
	f.Fuzz(func(t *testing.T, n uint16, raw []byte) {
		g := fuzzGraph(n, raw)
		checkEncodingAgrees(t, g)
		var buf bytes.Buffer
		if err := g.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Decode(&buf)
		if err != nil {
			t.Fatalf("Decode(Encode(g)): %v", err)
		}
		if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape: %v vs %v", g, back)
		}
		for i := 0; i < g.NumEdges(); i++ {
			if g.Edge(i) != back.Edge(i) {
				t.Fatalf("round trip changed edge %d: %+v vs %+v", i, g.Edge(i), back.Edge(i))
			}
		}
	})
}

// TestMaterializeMatchesEdgeByEdgeBuild checks the presized Materialize
// against the plain build it replaces: same edges, same adjacency order,
// same digest, and the result stays an ordinary growable, truncatable graph.
func TestMaterializeMatchesEdgeByEdgeBuild(t *testing.T) {
	m := NewMutable(40)
	for i := 0; i < 40; i++ {
		for j := i + 1; j < 40; j += 1 + (i+j)%5 {
			if _, err := m.Insert(i, j, float64(1+(i*j)%7)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 40; i += 3 {
		if e, ok := m.LiveBetween(i, i+1); ok {
			if _, err := m.Delete(e.U, e.V); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.AddVertex() // an isolated vertex gets an empty block

	got, ids := m.Materialize()
	want := New(m.NumVertices())
	var wantIDs []int
	for _, e := range m.LiveEdges() {
		want.MustAddEdge(e.U, e.V, e.Weight)
		wantIDs = append(wantIDs, e.ID)
	}
	sameGraph(t, got, want)
	if fmt.Sprint(ids) != fmt.Sprint(wantIDs) {
		t.Fatalf("ids = %v, want %v", ids, wantIDs)
	}

	// Growing past the exact-degree blocks relocates them like any block.
	last := m.NumVertices() - 1
	for v := 0; v < 10; v++ {
		got.MustAddEdge(last, v, 9)
		want.MustAddEdge(last, v, 9)
	}
	if _, err := got.AddEdge(0, last, 1); err == nil {
		t.Fatal("parallel edge accepted after Materialize")
	}
	sameGraph(t, got, want)
	got.Truncate(got.NumEdges() - 15)
	want.Truncate(want.NumEdges() - 15)
	sameGraph(t, got, want)
}

// sameGraph asserts a and b have equal edges, adjacency and digest.
func sameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape %v, want %v", a, b)
	}
	for i := 0; i < a.NumEdges(); i++ {
		if a.Edge(i) != b.Edge(i) {
			t.Fatalf("edge %d = %+v, want %+v", i, a.Edge(i), b.Edge(i))
		}
		u, v := a.Edge(i).Endpoints()
		if e, ok := a.EdgeBetween(v, u); !ok || e.ID != i {
			t.Fatalf("EdgeBetween(%d,%d) = %+v,%v, want edge %d", v, u, e, ok, i)
		}
	}
	for v := 0; v < a.NumVertices(); v++ {
		if fmt.Sprint(a.Neighbors(v)) != fmt.Sprint(b.Neighbors(v)) {
			t.Fatalf("vertex %d adjacency %v, want %v", v, a.Neighbors(v), b.Neighbors(v))
		}
	}
	if a.Digest() != b.Digest() {
		t.Fatal("digests differ")
	}
}

// benchMutable is a session-sized mutable graph: 150 vertices, 2000 live
// edges on quantized weights, after 200 tombstoning deletes.
func benchMutable() *Mutable {
	r := rand.New(rand.NewSource(1))
	m := NewMutable(150)
	for m.NumLiveEdges() < 2200 {
		_, _ = m.Insert(r.Intn(150), r.Intn(150), float64(1+r.Intn(8)))
	}
	for _, e := range m.LiveEdges()[:200] {
		_, _ = m.Delete(e.U, e.V)
	}
	return m
}

func BenchmarkDigest(b *testing.B) {
	g, _ := benchMutable().Materialize()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Digest()
	}
}

func BenchmarkMaterialize(b *testing.B) {
	m := benchMutable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Materialize()
	}
}
