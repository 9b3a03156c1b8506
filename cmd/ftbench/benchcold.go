package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"github.com/ftspanner/ftspanner"
)

// coldKind is one job of the ColdMix case: the jobs-cold workload's job
// kinds, each on a fixed-size input.
type coldKind struct {
	geometric    bool
	faults       int
	parallelism  int
	edgeFaults   bool
	conservative bool
}

// coldKinds lists the 20 jobs-cold kinds in the end-to-end benchmark's
// order: mostly unit-weight GNM(100, 800) graphs at f = 1 or 2, four of
// them at Parallelism 2, three geometric graphs (120 points, radius 0.2,
// distinct weights), two edge-fault jobs and one conservative build. Every
// job runs at stretch 3.
var coldKinds = []coldKind{
	{faults: 2}, {faults: 1, parallelism: 2}, {faults: 1},
	{faults: 2}, {faults: 1}, {faults: 1, parallelism: 2},
	{faults: 2}, {faults: 1}, {faults: 1},
	{faults: 2, parallelism: 2}, {faults: 1}, {faults: 1},
	{faults: 2}, {faults: 1, parallelism: 2},
	{geometric: true, faults: 2}, {geometric: true, faults: 1}, {geometric: true, faults: 1},
	{faults: 1, edgeFaults: true}, {faults: 1, edgeFaults: true},
	{faults: 1, conservative: true},
}

// coldMixSeed seeds the ColdMix inputs: kind i builds the graph of seed
// coldMixSeed+i.
const coldMixSeed = 16001

// coldJob is one prepared ColdMix build.
type coldJob struct {
	g            *ftspanner.Graph
	opts         ftspanner.Options
	conservative bool
}

func (j coldJob) build() (*ftspanner.Result, error) {
	if j.conservative {
		return ftspanner.BuildConservative(j.g, j.opts)
	}
	return ftspanner.Build(j.g, j.opts)
}

// coldMixBench measures the ColdMix case: one op builds every jobs-cold
// kind once, so ns/op is the scan cost of one round of the jobs-cold mix
// without the service around it. Dijkstras and oracle calls are summed over
// the round, and spanner_digest hashes the round's spanner digests in
// order, so a changed kept set in any kind shows up offline.
func coldMixBench(out io.Writer) (componentBench, error) {
	jobs := make([]coldJob, len(coldKinds))
	for i, k := range coldKinds {
		seed := int64(coldMixSeed + i)
		var g *ftspanner.Graph
		if k.geometric {
			g, _ = ftspanner.RandomGeometricGraph(120, 0.2, seed)
		} else {
			var err error
			if g, err = ftspanner.RandomGraph(100, 800, seed); err != nil {
				return componentBench{}, err
			}
		}
		mode := ftspanner.VertexFaults
		if k.edgeFaults {
			mode = ftspanner.EdgeFaults
		}
		jobs[i] = coldJob{g: g, conservative: k.conservative,
			opts: ftspanner.Options{Stretch: 3, Faults: k.faults, Mode: mode, Parallelism: k.parallelism}}
	}

	entry := componentBench{Name: "ColdMix"}
	h := sha256.New()
	for _, j := range jobs {
		res, err := j.build()
		if err != nil {
			return componentBench{}, err
		}
		entry.Dijkstras += res.Stats.Dijkstras
		entry.OracleCalls += res.Stats.OracleCalls
		entry.KeptEdges += len(res.Kept)
		io.WriteString(h, res.Spanner.Digest())
	}
	entry.SpannerDigest = hex.EncodeToString(h.Sum(nil))

	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, j := range jobs {
				if _, err := j.build(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	entry.NsPerOp = float64(br.NsPerOp())
	entry.AllocsPerOp = br.AllocsPerOp()
	entry.BytesPerOp = br.AllocedBytesPerOp()
	fmt.Fprintf(out, "%-14s %12.0f ns/op %8d allocs/op %10d B/op  dijkstras=%d\n",
		entry.Name, entry.NsPerOp, entry.AllocsPerOp, entry.BytesPerOp, entry.Dijkstras)
	return entry, nil
}
