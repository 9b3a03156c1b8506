package graph

import (
	"bytes"
	"math"
	"testing"
)

// roundTripWeights are floats whose shortest round-trip text is long or
// unusual: the line cache must write them exactly as Encode does.
var roundTripWeights = []float64{
	0.1, 0.1 + 0.2, 1.0 / 3, 2.0 / 3, math.Nextafter(1, 2), math.Nextafter(1, 0),
	math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789.123456789, 1e21, 1e-7,
}

// fuzzWeight maps two bytes to a positive finite weight from one of five
// classes: unit, tied (a few shared levels), wide (1e-300…1e300),
// subnormal, and shortest round-trip floats.
func fuzzWeight(class, x byte) float64 {
	switch class % 5 {
	case 0:
		return 1
	case 1:
		return float64(1 + x%3)
	case 2:
		return math.Pow(10, float64(int(x)%601-300))
	case 3:
		return math.SmallestNonzeroFloat64 * float64(1+int(x))
	default:
		return roundTripWeights[int(x)%len(roundTripWeights)]
	}
}

// FuzzMutableDigest drives random Insert/Delete/AddVertex/Compact sequences
// through a Mutable and freezes a view after every op. Each view's streamed
// digest must equal the materialized graph's, and its cached lines must
// encode the live graph exactly as Encode does. At the end each view must
// still report the digest it had when frozen, however many inserts, deletes
// and compactions followed.
func FuzzMutableDigest(f *testing.F) {
	f.Add(byte(4), []byte{0, 0, 1, 0, 0, 0, 1, 2, 1, 5, 2, 0, 4, 0, 1, 2, 3, 7})
	f.Add(byte(3), []byte{0, 0, 1, 2, 9, 0, 1, 2, 3, 1, 2, 0, 0, 4, 0, 2, 0, 4})
	f.Add(byte(0), []byte{3, 3, 3, 0, 0, 1, 3, 200, 1, 1, 2, 4, 77, 2, 0, 4, 2, 0})
	f.Fuzz(func(t *testing.T, n byte, ops []byte) {
		m := NewMutable(int(n % 8))
		type frozen struct {
			f      *Frozen
			digest string
		}
		var views []frozen
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		for steps := 0; len(ops) > 0 && steps < 256; steps++ {
			switch next() % 5 {
			case 0, 1:
				if m.NumVertices() < 2 {
					m.AddVertex()
					m.AddVertex()
				}
				u, v := int(next())%m.NumVertices(), int(next())%m.NumVertices()
				w := fuzzWeight(next(), next())
				if _, err := m.Insert(u, v, w); err != nil && u != v {
					if _, live := m.LiveBetween(u, v); !live {
						t.Fatalf("Insert(%d,%d,%v): %v", u, v, w, err)
					}
				}
			case 2:
				if live := m.LiveEdges(); len(live) > 0 {
					e := live[int(next())%len(live)]
					if _, err := m.Delete(e.U, e.V); err != nil {
						t.Fatalf("Delete(%d,%d): %v", e.U, e.V, err)
					}
				}
			case 3:
				m.AddVertex()
			case 4:
				m.Compact()
			}
			mat, _ := m.Materialize()
			want := mat.Digest()
			fr := m.Freeze()
			if got := fr.Digest(); got != want {
				t.Fatalf("step %d: Freeze().Digest %s, Materialize().Digest %s", steps, got, want)
			}
			var enc bytes.Buffer
			if err := mat.Encode(&enc); err != nil {
				t.Fatal(err)
			}
			if got := fr.AppendSubgraph(nil, m.LiveEdges()); !bytes.Equal(got, enc.Bytes()) {
				t.Fatalf("step %d: cached lines encode\n%s\nEncode writes\n%s", steps, got, enc.Bytes())
			}
			views = append(views, frozen{fr, want})
		}
		for i, v := range views {
			if got := v.f.Digest(); got != v.digest {
				t.Fatalf("view %d: digest changed from %s to %s", i, v.digest, got)
			}
			if mat, _ := v.f.Materialize(); mat.Digest() != v.digest {
				t.Fatalf("view %d: materializes to %s, froze at %s", i, mat.Digest(), v.digest)
			}
		}
	})
}
