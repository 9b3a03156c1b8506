package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
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
	buf := append((*bp)[:0], 'p', ' ')
	buf = strconv.AppendInt(buf, int64(g.NumVertices()), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(g.NumEdges()), 10)
	buf = append(buf, '\n')
	for _, e := range g.edges {
		buf = append(buf, 'e', ' ')
		buf = strconv.AppendInt(buf, int64(e.U), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(e.V), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendFloat(buf, e.Weight, 'g', -1, 64)
		buf = append(buf, '\n')
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

// Decode parses a graph in the format produced by Encode.
func Decode(r io.Reader) (*Graph, error) {
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
