package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/ftspanner/ftspanner/internal/core"
	"github.com/ftspanner/ftspanner/internal/fault"
	"github.com/ftspanner/ftspanner/internal/gen"
	"github.com/ftspanner/ftspanner/internal/graph"
	"github.com/ftspanner/ftspanner/internal/service"
)

// Seed streams: every input of a run derives from (workload seed, stream,
// index), so one seed fixes graphs, op mixes and Zipf draws alike.
const (
	streamWarm   = 1 << 8 // warm-up inputs, never measured
	streamClient = 2 << 8 // per-client op mix and generator seeds (+ client index)
	streamPool   = 4 << 8 // hot-fleet pool graphs
	streamSess   = 5 << 8 // session initial graphs (+ client index)
	streamCheck  = 6 << 8 // session checkpoint choice (+ client index)
)

// subSeed mixes (seed, stream, i) into an independent 63-bit seed
// (splitmix64 finalizer).
func subSeed(seed int64, stream, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(stream)<<40 ^ uint64(i)
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// materialize is the clean-room twin of the server's spec materialization
// for the inputs this benchmark sends: inline graphs, and the random and
// geometric generators seeded exactly as the server seeds them.
func materialize(spec *service.JobSpec) (*graph.Graph, error) {
	if spec.Graph != "" {
		return graph.Decode(strings.NewReader(spec.Graph))
	}
	gs := spec.Generator
	switch gs.Name {
	case "random":
		return gen.ConnectedGNM(gs.N, gs.M, newRand(gs.Seed))
	case "geometric":
		g, _ := gen.RandomGeometric(gs.N, gs.Radius, newRand(gs.Seed))
		return g, nil
	}
	return nil, fmt.Errorf("generator %q is not used by this benchmark", gs.Name)
}

func modeOf(s string) fault.Mode {
	if s == fault.Edges.String() {
		return fault.Edges
	}
	return fault.Vertices
}

// cleanRoom runs the sequential greedy (or the conservative greedy) the
// spec asks for on g, independent of the server. observe, when set,
// receives the oracle's sampled query latencies.
func cleanRoom(g *graph.Graph, stretch float64, faults int, mode, algorithm string, observe *ledger) (*core.Result, error) {
	opts := core.Options{Stretch: stretch, Faults: faults, Mode: modeOf(mode)}
	if observe != nil {
		opts.Oracle.ObserveQuery = func(d time.Duration) { observe.sample("fault.oracle_query_us", durUS(d)) }
	}
	if algorithm == service.AlgoConservative {
		return core.GreedyConservative(g, opts)
	}
	return core.Greedy(g, opts)
}

// jobAnswer is the GET /v1/jobs/{id}/spanner body.
type jobAnswer struct {
	ID      string `json:"id"`
	Spanner string `json:"spanner"`
	Kept    []int  `json:"kept"`
}

// reducedAnswer is what the clean-room check needs of a spanner answer:
// the digest of its spanner text, which is what graph.Digest hashes, and a
// hash of its kept-edge list.
type reducedAnswer struct {
	digest string
	kept   [32]byte
}

func reduceAnswer(body []byte) (reducedAnswer, error) {
	var a jobAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return reducedAnswer{}, fmt.Errorf("spanner answer: %v", err)
	}
	sum := sha256.Sum256([]byte(a.Spanner))
	return reducedAnswer{digest: hex.EncodeToString(sum[:]), kept: keptSum(a.Kept)}, nil
}

func keptSum(kept []int) [32]byte {
	b := make([]byte, 0, 8*len(kept))
	for _, id := range kept {
		b = binary.LittleEndian.AppendUint64(b, uint64(id))
	}
	return sha256.Sum256(b)
}

// check compares a reduced answer with the clean-room spanner digest and
// kept-edge list.
func (a reducedAnswer) check(wantDigest string, wantKept []int) error {
	if a.digest != wantDigest {
		return fmt.Errorf("spanner digest %.12s, clean-room greedy %.12s", a.digest, wantDigest)
	}
	if a.kept != keptSum(wantKept) {
		return fmt.Errorf("kept edges differ from the clean-room greedy")
	}
	return nil
}

// checkAnswer compares a job's spanner answer with the clean-room spanner
// digest and kept-edge list.
func checkAnswer(body []byte, wantDigest string, wantKept []int) error {
	a, err := reduceAnswer(body)
	if err != nil {
		return err
	}
	return a.check(wantDigest, wantKept)
}

// encodeResponse replays the server's JSON answer encoding (two-space
// indent) of v.
func encodeResponse(v any) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // writes to a bytes.Buffer do not fail
}

// decodeSpec replays the server's strict job-spec decode.
func decodeSpec(body []byte) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var spec service.JobSpec
	_ = dec.Decode(&spec) // the body was accepted by the server already
}

// encodeGraph renders g in the text format.
func encodeGraph(g *graph.Graph) string {
	var b strings.Builder
	_ = g.Encode(&b) // writes to a strings.Builder do not fail
	return b.String()
}
