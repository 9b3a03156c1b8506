package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// decodeReference is the original bufio.Scanner + strings.Fields decoder,
// kept as the oracle the one-pass decoder must match: the same accepted
// language, the same edge IDs and digests, and errors on the same line.
func decodeReference(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var (
		g       *Graph
		lineNum int
		edges   int
	)
	for sc.Scan() {
		lineNum++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "p":
			if g != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate header", lineNum)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: header needs 2 fields, got %d", lineNum, len(fields)-1)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad vertex count: %w", lineNum, err)
			}
			m, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad edge count: %w", lineNum, err)
			}
			if n < 0 || m < 0 {
				return nil, fmt.Errorf("graph: line %d: negative counts", lineNum)
			}
			g = New(n)
			edges = m
		case "e":
			if g == nil {
				return nil, fmt.Errorf("graph: line %d: edge before header", lineNum)
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: line %d: edge needs 3 fields, got %d", lineNum, len(fields)-1)
			}
			u, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad endpoint: %w", lineNum, err)
			}
			v, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad endpoint: %w", lineNum, err)
			}
			wgt, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight: %w", lineNum, err)
			}
			if _, err := g.AddEdge(u, v, wgt); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNum, err)
			}
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", lineNum, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("graph: missing header")
	}
	if g.NumEdges() != edges {
		return nil, fmt.Errorf("graph: header promised %d edges, found %d", edges, g.NumEdges())
	}
	return g, nil
}

// hugeVertexHeader asks for far more vertices than any service accepts.
const hugeVertexHeader = "p 400000000 0\n"

// longLine returns a comment line of n bytes, newline excluded.
func longLine(n int) string { return "#" + strings.Repeat("x", n-1) + "\n" }

// errLine extracts the line number an error names, or -1 for none.
var lineRE = regexp.MustCompile(`^graph: line (\d+):`)

func errLine(err error) int {
	m := lineRE.FindStringSubmatch(err.Error())
	if m == nil {
		return -1
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// checkDecodeAgrees decodes data with both decoders and asserts they agree:
// both reject, naming the same line with the same message (the old
// scanner's overlong-line error named no line, the new one does), or both
// accept the same graph, edge for edge and digest for digest.
func checkDecodeAgrees(t *testing.T, data string) {
	t.Helper()
	want, werr := decodeReference(strings.NewReader(data))
	got, gerr := DecodeString(data, 0)
	switch {
	case werr != nil && gerr != nil:
		if errors.Is(werr, bufio.ErrTooLong) {
			if !errors.Is(gerr, bufio.ErrTooLong) {
				t.Fatalf("reference refused an overlong line, got %v", gerr)
			}
			return
		}
		if gerr.Error() != werr.Error() {
			t.Fatalf("error %q, reference %q", gerr, werr)
		}
	case werr != nil:
		t.Fatalf("accepted %v, reference refused: %v", got, werr)
	case gerr != nil:
		t.Fatalf("refused (%v), reference accepted %v", gerr, want)
	default:
		sameGraph(t, got, want)
	}
}

// fuzzMaxVertices bounds the vertex counts the differential fuzz decodes.
const fuzzMaxVertices = 1 << 16

// FuzzDecodeDifferential runs the one-pass decoder against the original
// scanner-based one on arbitrary input. The committed corpus covers CRLF,
// tabs, Unicode spaces, comments, signed and hex-float fields, inf/nan, a
// missing final newline, duplicate headers and count mismatches; the lines
// at the 16 MiB limit are built here rather than committed.
func FuzzDecodeDifferential(f *testing.F) {
	if !testing.Short() {
		long := longLine(maxLine)
		f.Add([]byte("p 1 0\n" + long))
		f.Add([]byte("p 1 0\n" + strings.TrimSuffix(long, "\n")))
		f.Add([]byte("p 1 0\n" + longLine(maxLine+1)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Both decoders allocate a declared vertex count up front; a fuzzed
		// header must not make the test itself allocate gigabytes.
		if _, err := DecodeString(string(data), fuzzMaxVertices); errors.Is(err, ErrTooManyVertices) {
			t.Skip("header over the fuzz vertex bound")
		}
		checkDecodeAgrees(t, string(data))
	})
}

// TestDecodeLineLimit pins the boundary the scanner-based decoder had: a
// line of maxLine bytes is read, one byte more is refused, with or without
// the final newline.
func TestDecodeLineLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("16 MiB inputs")
	}
	ok := "p 1 0\n" + longLine(maxLine)
	if _, err := DecodeString(ok, 0); err != nil {
		t.Fatalf("line of %d bytes: %v", maxLine, err)
	}
	for _, bad := range []string{
		"p 1 0\n" + longLine(maxLine+1),
		"p 1 0\n" + strings.TrimSuffix(longLine(maxLine+1), "\n"),
	} {
		if _, err := DecodeString(bad, 0); !errors.Is(err, bufio.ErrTooLong) || errLine(err) != 2 {
			t.Fatalf("line of %d bytes: err %v, want line 2 too long", len(bad)-6, err)
		}
	}
}

// TestDecodeMatchesReferenceOnEncodings decodes the canonical text of
// random graphs of several shapes with both decoders.
func TestDecodeMatchesReferenceOnEncodings(t *testing.T) {
	for _, shape := range [][2]int{{0, 0}, {1, 0}, {2, 1}, {50, 49}, {150, 2000}, {800, 1000}} {
		g := benchGraph(shape[0], shape[1], 12, 3)
		var buf bytes.Buffer
		if err := g.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		checkDecodeAgrees(t, buf.String())
		got, _ := DecodeString(buf.String(), 0)
		sameGraph(t, got, g)
	}
}

// TestDecodeTruncateAfterLayout checks the one-pass CSR layout keeps the
// block order Truncate relies on: popping decoded edges and re-adding them
// gives back the same graph.
func TestDecodeTruncateAfterLayout(t *testing.T) {
	g := benchGraph(60, 400, 5, 9)
	var buf bytes.Buffer
	_ = g.Encode(&buf)
	got, err := DecodeString(buf.String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	got.Truncate(250)
	for id := 250; id < g.NumEdges(); id++ {
		e := g.Edge(id)
		got.MustAddEdge(e.U, e.V, e.Weight)
	}
	sameGraph(t, got, g)
}

// TestDecodeBoundsAllocation: a short body cannot make the decoder allocate
// in proportion to what its header declares. Vertices are refused over the
// caller's bound before any allocation; edge capacity never exceeds what
// the remaining input could hold.
func TestDecodeBoundsAllocation(t *testing.T) {
	if _, err := DecodeString(hugeVertexHeader, 1<<20); !errors.Is(err, ErrTooManyVertices) || errLine(err) != 1 {
		t.Fatalf("huge header under a vertex bound: err %v, want a line-1 error", err)
	}
	for _, tc := range []struct {
		name  string
		in    string
		bound int
	}{
		{"huge vertex count, bounded", hugeVertexHeader, 1 << 20},
		{"huge edge count", "p 2 1000000000\ne 0 1 1\n", 0},
		{"huge edge count, no edges", "p 2 1000000000\n", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := allocBytes(func() { _, _ = DecodeString(tc.in, tc.bound) }); got > 64<<10 {
				t.Fatalf("decoding %d bytes allocated %d bytes", len(tc.in), got)
			}
		})
	}
}

// allocBytes reports the bytes fn allocates on the heap.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeAllocsConstant: a successful decode allocates a fixed handful
// of objects whatever the graph's size.
func TestDecodeAllocsConstant(t *testing.T) {
	for _, shape := range [][2]int{{150, 2000}, {800, 1000}} {
		var buf bytes.Buffer
		_ = benchGraph(shape[0], shape[1], 12, 1).Encode(&buf)
		text := buf.String()
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := DecodeString(text, 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 16 {
			t.Errorf("n=%d m=%d: %.0f allocations per decode, want at most 16", shape[0], shape[1], allocs)
		}
	}
}

// benchGraph is a connected random graph on n vertices and m edges (a
// random spanning tree first, as the service's random generator builds
// them), with weights drawn from {1..levels}.
func benchGraph(n, m, levels int, seed int64) *Graph {
	r := rand.New(rand.NewSource(seed))
	g := New(n)
	w := func() float64 { return float64(1 + r.Intn(levels)) }
	perm := r.Perm(n)
	for i := 1; i < n && g.NumEdges() < m; i++ {
		g.MustAddEdge(perm[i], perm[r.Intn(i)], w())
	}
	for g.NumEdges() < m {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, w())
		}
	}
	return g
}

// BenchmarkDecode parses the canonical text of the two inline-graph shapes
// the service sees most: the hot fleet pool's 800 vertices and 1000 unit
// edges, and the session fixture's 150 vertices and 2000 edges on 12
// weight levels. The Reference cases run the original scanner decoder.
func BenchmarkDecode(b *testing.B) {
	for _, c := range []struct {
		name         string
		n, m, levels int
	}{
		{"HotPool", 800, 1000, 1},
		{"Session", 150, 2000, 12},
	} {
		var buf bytes.Buffer
		_ = benchGraph(c.n, c.m, c.levels, 1).Encode(&buf)
		text := buf.String()
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(text)))
			for i := 0; i < b.N; i++ {
				if _, err := DecodeString(text, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"Reference", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(text)))
			for i := 0; i < b.N; i++ {
				if _, err := decodeReference(strings.NewReader(text)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
