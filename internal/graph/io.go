package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// encodeChunk is the size Encode's output buffer is flushed at; the buffer
// holds at most one chunk plus one edge line, whatever the graph's size.
const encodeChunk = 32 << 10

// maxEdgeLine bounds one encoded edge line: "e", two int64 endpoints, the
// shortest round-trip form of a float64 (at most 24 bytes), three spaces and
// the newline.
const maxEdgeLine = 1 + 2*20 + 24 + 3 + 1

// encodeBufs recycles Encode's chunk buffers across calls: Digest runs on
// every cache lookup and session batch, and a fresh chunk per call would be
// garbage the size of the graph's text.
var encodeBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, encodeChunk+maxEdgeLine)
	return &b
}}

// Encode writes the graph in a simple line-oriented text format:
//
//	p <numVertices> <numEdges>
//	e <u> <v> <weight>    (one line per edge, in edge-ID order)
//
// Weights are written in the shortest form that parses back to the same
// float64 (strconv 'g', precision -1). Lines starting with '#' are comments.
// The format round-trips exactly through Decode, including edge IDs (which
// are assigned in line order). The bytes are the graph's canonical form:
// Digest hashes them, so they must never change for a given graph.
func (g *Graph) Encode(w io.Writer) error {
	bp := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(bp)
	buf := appendHeader((*bp)[:0], g.NumVertices(), g.NumEdges())
	for _, e := range g.edges {
		buf = appendEdgeLine(buf, e.U, e.V, e.Weight)
		if len(buf) >= encodeChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

// appendHeader appends the canonical header line, "p n m\n".
func appendHeader(buf []byte, n, m int) []byte {
	buf = append(buf, 'p', ' ')
	buf = strconv.AppendInt(buf, int64(n), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(m), 10)
	return append(buf, '\n')
}

// appendEdgeLine appends the canonical line of edge (u, v) with weight w,
// "e u v w\n". It is the one definition of the line: Encode writes it,
// Digest hashes it, and Mutable caches it per edge.
func appendEdgeLine(buf []byte, u, v int, w float64) []byte {
	buf = append(buf, 'e', ' ')
	buf = strconv.AppendInt(buf, int64(u), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(v), 10)
	buf = append(buf, ' ')
	// An integral weight in (0, 1e6) prints in 'g' form as its plain
	// decimal digits, so AppendInt writes the same bytes faster; from 1e6
	// up 'g' switches to exponent form ("1e+06").
	if w > 0 && w < 1e6 && w == math.Trunc(w) {
		buf = strconv.AppendInt(buf, int64(w), 10)
	} else {
		buf = strconv.AppendFloat(buf, w, 'g', -1, 64)
	}
	return append(buf, '\n')
}

// maxLine bounds one input line, its newline excluded: Decode has always
// refused longer lines (it once read through a bufio.Scanner with a 16 MiB
// token buffer, which had to hold the line and its newline).
const maxLine = 16<<20 - 1

// minEdgeLine is the length of the shortest edge line, "e 0 1 1\n".
// DecodeString presizes for the header's edge count, but never for more
// edges than the rest of the input can hold at this length each, so a
// header cannot make a tiny body allocate a huge edge list.
const minEdgeLine = 8

// ErrTooManyVertices is returned by DecodeString when a header declares more
// vertices than the caller's bound.
var ErrTooManyVertices = errors.New("too many vertices")

// Decode parses a graph in the format produced by Encode. It reads r to the
// end and parses the text with DecodeString, with no vertex bound.
func Decode(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return DecodeString(string(data), 0)
}

// DecodeString parses a graph in the format produced by Encode from s, in
// one pass that cuts lines and fields in place. Fields are separated by
// runs of Unicode white space, lines end at '\n', blank lines and lines
// whose first field starts with '#' are skipped, and an error about a line
// names it; a line of 16 MiB or more is refused with bufio.ErrTooLong. When
// maxVertices > 0, a header declaring more vertices is refused with
// ErrTooManyVertices before anything is allocated.
//
// Edges are collected in line order, which assigns their IDs, and the CSR
// arena is laid out once at the end with exact per-vertex blocks.
func DecodeString(s string, maxVertices int) (*Graph, error) {
	var (
		g        *Graph
		promised int
		lineNum  int
		f        [4]string
	)
	for pos := 0; pos < len(s); {
		line := s[pos:]
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line, pos = line[:i], pos+i+1
		} else {
			pos = len(s)
		}
		lineNum++
		if len(line) > maxLine {
			return nil, fmt.Errorf("graph: line %d: %w", lineNum, bufio.ErrTooLong)
		}
		nf := splitFields(line, &f)
		if nf == 0 || f[0][0] == '#' {
			continue
		}
		switch f[0] {
		case "p":
			if g != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate header", lineNum)
			}
			if nf != 3 {
				return nil, fmt.Errorf("graph: line %d: header needs 2 fields, got %d", lineNum, nf-1)
			}
			n, err := strconv.Atoi(f[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad vertex count: %w", lineNum, err)
			}
			m, err := strconv.Atoi(f[2])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad edge count: %w", lineNum, err)
			}
			if n < 0 || m < 0 {
				return nil, fmt.Errorf("graph: line %d: negative counts", lineNum)
			}
			if maxVertices > 0 && n > maxVertices {
				return nil, fmt.Errorf("graph: line %d: %w: %d, over the limit of %d", lineNum, ErrTooManyVertices, n, maxVertices)
			}
			promised = m
			m = min(m, (len(s)-pos)/minEdgeLine+1)
			g = &Graph{
				edges: make([]Edge, 0, m),
				seg:   make([]segment, n),
				index: make(map[[2]int]int, m),
			}
		case "e":
			if g == nil {
				return nil, fmt.Errorf("graph: line %d: edge before header", lineNum)
			}
			if nf != 4 {
				return nil, fmt.Errorf("graph: line %d: edge needs 3 fields, got %d", lineNum, nf-1)
			}
			u, err := strconv.Atoi(f[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad endpoint: %w", lineNum, err)
			}
			v, err := strconv.Atoi(f[2])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad endpoint: %w", lineNum, err)
			}
			w, err := strconv.ParseFloat(f[3], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight: %w", lineNum, err)
			}
			if err := g.checkEdge(u, v, w); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNum, err)
			}
			if err := g.pushEdge(u, v, w); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNum, err)
			}
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", lineNum, f[0])
		}
	}
	if g == nil {
		return nil, fmt.Errorf("graph: missing header")
	}
	if g.NumEdges() != promised {
		return nil, fmt.Errorf("graph: header promised %d edges, found %d", promised, g.NumEdges())
	}
	g.layOut()
	return g, nil
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields cuts line around runs of white space exactly as strings.Fields
// does (unicode.IsSpace on decoded runes; invalid UTF-8 is not space). It
// stores the first len(f) fields in f, as substrings of line, and returns
// the number of fields.
func splitFields(line string, f *[4]string) int {
	n, start := 0, -1
	for i := 0; i < len(line); {
		c, size := line[i], 1
		var space bool
		if c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			var r rune
			r, size = utf8.DecodeRuneInString(line[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case !space:
			if start < 0 {
				start = i
			}
		case start >= 0:
			if n < len(f) {
				f[n] = line[start:i]
			}
			n, start = n+1, -1
		}
		i += size
	}
	if start >= 0 {
		if n < len(f) {
			f[n] = line[start:]
		}
		n++
	}
	return n
}
