package main

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"github.com/ftspanner/ftspanner/internal/graph"
)

// Decode cases: graph.DecodeString over the canonical text of the two
// inline-graph shapes the service parses most. DecodeHotPool is a
// jobs-hot-fleet pool graph (800 vertices, 1000 unit-weight edges), which
// a hot fleet job decodes once on the routing node and once on its owner;
// DecodeSession is the session fixture (150 vertices, 2000 edges on 12
// weight levels). One op is one decode.
var decodeCases = []struct {
	name         string
	n, m, levels int
}{
	{"DecodeHotPool", 800, 1000, 0},
	{"DecodeSession", 150, 2000, 12},
}

// decodeBenchEntries measures the decode cases. Each case's input is
// checked to decode back to its graph's digest before it is timed.
func decodeBenchEntries(out io.Writer) ([]componentBench, error) {
	entries := make([]componentBench, 0, len(decodeCases))
	for _, c := range decodeCases {
		g, err := caseGraph(buildCase{n: c.n, m: c.m, seed: 7, levels: c.levels})
		if err != nil {
			return nil, err
		}
		var sb strings.Builder
		if err := g.Encode(&sb); err != nil {
			return nil, err
		}
		text := sb.String()
		got, err := graph.DecodeString(text, 0)
		if err != nil {
			return nil, err
		}
		if got.Digest() != g.Digest() {
			return nil, fmt.Errorf("benchjson: %s decodes to digest %s, want %s", c.name, got.Digest(), g.Digest())
		}
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := graph.DecodeString(text, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		fmt.Fprintf(out, "%-14s %12.0f ns/op %8d allocs/op %10d B/op  bytes=%d\n",
			c.name, float64(br.NsPerOp()), br.AllocsPerOp(), br.AllocedBytesPerOp(), len(text))
		entries = append(entries, componentBench{
			Name:        c.name,
			NsPerOp:     float64(br.NsPerOp()),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
		})
	}
	return entries, nil
}
