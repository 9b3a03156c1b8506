package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/ftspanner/ftspanner/internal/baseline"
	"github.com/ftspanner/ftspanner/internal/core"
	"github.com/ftspanner/ftspanner/internal/fault"
	"github.com/ftspanner/ftspanner/internal/gen"
	"github.com/ftspanner/ftspanner/internal/verify"
)

// e7 measures the paper's closing open question: the naive FT greedy oracle
// is exponential in f, while sampling-style constructions (Dinitz–
// Krauthgamer [16]) are polynomial. We report shortest-path computations
// (the honest work unit) and wall time across f, for the naive oracle (the
// plain hitting-set branching: pruning and memo off, and no state kept
// between queries), the accelerated oracle (pruning and memo on), and the
// sampling baseline.
func e7() Experiment {
	return Experiment{
		ID:    "E7",
		Title: "Runtime vs f: exponential greedy, polynomial sampling",
		Claim: "Open question: naive FT greedy is exponential in f; [16] is polynomial",
		Run: func(cfg Config) (*Report, error) {
			rep := &Report{ID: "E7", Title: "Runtime vs f", Pass: true}
			rng := rand.New(rand.NewSource(cfg.Seed))
			// Weighted graphs are the hard case: with weights in [1,2) a
			// detour within stretch 3 can take up to 5 edges, so the
			// branching oracle faces up to 4 internal vertices per level
			// (unit-weight graphs cap the branch factor at stretch-1).
			n, m := 50, 1000
			fs := []int{0, 1, 2, 3, 4, 5, 6, 7}
			if cfg.Quick {
				n, m = 16, 60
				fs = []int{0, 1, 2}
			}
			base, err := gen.ConnectedGNM(n, m, rng)
			if err != nil {
				return nil, err
			}
			g, err := gen.RandomizeWeights(base, 1, 2, rng)
			if err != nil {
				return nil, err
			}
			const stretch = 3.0

			table := NewTable(
				fmt.Sprintf("E7: work vs f on weighted G(n=%d,m=%d), stretch 3 (Dijkstra runs and wall time)", n, m),
				"f", "naive dijkstras", "naive time", "accel dijkstras", "accel time", "sampling time")
			var naive, accel []float64
			for _, f := range fs {
				resNaive, err := core.Greedy(g, core.Options{
					Stretch: stretch, Faults: f, Mode: fault.Vertices,
					Oracle: fault.Options{DisablePruning: true, DisableMemo: true},
				})
				if err != nil {
					return nil, err
				}
				resAccel, err := core.Greedy(g, core.Options{
					Stretch: stretch, Faults: f, Mode: fault.Vertices,
				})
				if err != nil {
					return nil, err
				}
				if resNaive.Spanner.NumEdges() != resAccel.Spanner.NumEdges() {
					rep.Pass = false
					rep.addFinding("E7 f=%d: ablation changed the output size (%d vs %d)",
						f, resNaive.Spanner.NumEdges(), resAccel.Spanner.NumEdges())
				}
				start := time.Now()
				if _, err := baseline.SamplingVFT(g, 2, f, baseline.SamplingVFTOptions{}, rng); err != nil {
					return nil, err
				}
				sampTime := time.Since(start)

				table.Add(Itoa(f),
					I64(resNaive.Stats.Dijkstras), Dur(resNaive.Stats.Duration),
					I64(resAccel.Stats.Dijkstras), Dur(resAccel.Stats.Duration),
					Dur(sampTime))
				if f >= 1 {
					naive = append(naive, float64(resNaive.Stats.Dijkstras))
					accel = append(accel, float64(resAccel.Stats.Dijkstras))
				}
			}
			rep.Tables = append(rep.Tables, table)
			if len(naive) >= 2 {
				growthN := naive[len(naive)-1] / naive[0]
				growthA := accel[len(accel)-1] / accel[0]
				fRatio := float64(fs[len(fs)-1]) / 1.0
				rep.addFinding("E7: naive oracle work grew %.1fx from f=1 to f=%d (superlinear: f grew %.0fx); accelerated oracle %.1fx; sampling stays polynomial",
					growthN, fs[len(fs)-1], fRatio, growthA)
				if !cfg.Quick && growthN < 2*fRatio {
					rep.Pass = false
					rep.addFinding("E7: naive work grew only %.1fx — expected clearly superlinear growth in f", growthN)
				}
			}
			return rep, nil
		},
	}
}

// e8 is the correctness experiment: Definition 2 holds for greedy outputs,
// checked exhaustively on small instances and by randomized plus greedy-
// adversarial fault injection on larger ones.
func e8() Experiment {
	return Experiment{
		ID:    "E8",
		Title: "Fault-tolerance verification of greedy outputs",
		Claim: "Definition 2 / Algorithm 1 correctness ('correctness is again obvious')",
		Run: func(cfg Config) (*Report, error) {
			rep := &Report{ID: "E8", Title: "Fault-tolerance verification", Pass: true}
			rng := rand.New(rand.NewSource(cfg.Seed))
			table := NewTable("E8: verification of FT greedy outputs",
				"instance", "mode", "k", "f", "|E(G)|", "|E(H)|", "check", "result")

			// Exhaustive block (small instances).
			small := []struct {
				name string
				n    int
				mode fault.Mode
				f    int
			}{
				{name: "K7-vft", n: 7, mode: fault.Vertices, f: 2},
				{name: "K7-eft", n: 7, mode: fault.Edges, f: 2},
			}
			if cfg.Quick {
				small = small[:1]
			}
			for _, s := range small {
				g := gen.Complete(s.n)
				res, err := core.Greedy(g, core.Options{Stretch: 3, Faults: s.f, Mode: s.mode})
				if err != nil {
					return nil, err
				}
				inst, err := verify.NewInstance(g, res.Spanner, res.Kept)
				if err != nil {
					return nil, err
				}
				verr := inst.ExhaustiveCheck(3, s.mode, s.f)
				result := "PASS"
				if verr != nil {
					result = "FAIL"
					rep.Pass = false
					rep.addFinding("E8 %s: %v", s.name, verr)
				}
				table.Add(s.name, s.mode.String(), "3", Itoa(s.f),
					Itoa(g.NumEdges()), Itoa(res.Spanner.NumEdges()), "exhaustive", result)
			}

			// Randomized + adversarial block (medium instances).
			if !cfg.Quick {
				medium := []struct {
					name string
					mode fault.Mode
					f    int
				}{
					{name: "geo-150", mode: fault.Vertices, f: 3},
					{name: "geo-150", mode: fault.Edges, f: 3},
				}
				geo, _ := gen.RandomGeometric(150, 0.18, rng)
				for _, s := range medium {
					res, err := core.Greedy(geo, core.Options{Stretch: 3, Faults: s.f, Mode: s.mode})
					if err != nil {
						return nil, err
					}
					inst, err := verify.NewInstance(geo, res.Spanner, res.Kept)
					if err != nil {
						return nil, err
					}
					verr := inst.RandomCheck(3, s.mode, s.f, 150, rng)
					if verr == nil {
						verr = inst.AdversarialCheck(3, s.mode, s.f, 60, rng)
					}
					result := "PASS"
					if verr != nil {
						result = "FAIL"
						rep.Pass = false
						rep.addFinding("E8 %s/%s: %v", s.name, s.mode, verr)
					}
					table.Add(s.name, s.mode.String(), "3", Itoa(s.f),
						Itoa(geo.NumEdges()), Itoa(res.Spanner.NumEdges()),
						"random+adversarial", result)
				}
			}
			rep.Tables = append(rep.Tables, table)
			rep.addFinding("E8: no fault set within budget ever broke the stretch guarantee")
			return rep, nil
		},
	}
}
