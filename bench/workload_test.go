package main

import (
	"math"
	"slices"
	"testing"

	"github.com/fusedmindlab/transfusion"
)

// keys lists the first n request keys of in's sequence.
func keys(in inputs, n int) []string {
	var out []string
	for pos := int64(0); pos < int64(n); pos++ {
		req, ok := in.next(pos)
		if !ok {
			break
		}
		out = append(out, req.key)
	}
	return out
}

func TestInputsArePureFunctionsOfSeed(t *testing.T) {
	for _, w := range workloads {
		a := keys(genInputs(w, 1, fullSize), 5000)
		b := keys(genInputs(w, 1, fullSize), 5000)
		c := keys(genInputs(w, 2, fullSize), 5000)
		if !slices.Equal(a, b) {
			t.Errorf("%s: seed 1 gave two different sequences", w.name)
		}
		if slices.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same sequence", w.name)
		}
	}
}

func TestSearchWorkloadsSendDistinctKeysOutsideTheCorpus(t *testing.T) {
	corpus := make(map[string]bool)
	for _, s := range corpusSpecs(fullSize) {
		corpus[s.CanonicalKey()] = true
	}
	for _, name := range []string{"cold-search", "near-miss"} {
		w, _ := workloadByName(name)
		in := genInputs(w, 7, fullSize)
		seen := make(map[string]bool)
		for _, r := range in.reqs {
			if corpus[r.key] {
				t.Errorf("%s: %s is in the corpus", name, r.key)
			}
			if seen[r.key] {
				t.Errorf("%s: %s is sent twice", name, r.key)
			}
			seen[r.key] = true
		}
		if len(in.reqs) < 200 {
			t.Errorf("%s: only %d distinct requests", name, len(in.reqs))
		}
	}
}

// TestNearMissNeighbourIsStrictlyNearest checks that every near-miss
// request's seeded neighbour stays its unique nearest stored plan, whichever
// other requests of its family the daemon has stored by then.
func TestNearMissNeighbourIsStrictlyNearest(t *testing.T) {
	w, _ := workloadByName("near-miss")
	in := genInputs(w, 3, fullSize)
	family := func(s transfusion.RunSpec) string {
		s.SeqLen = 0
		return s.CanonicalKey()
	}
	stored := make(map[string][]transfusion.RunSpec)
	for _, s := range corpusSpecs(fullSize) {
		stored[family(s)] = append(stored[family(s)], s)
	}
	for _, r := range in.reqs {
		stored[family(r.spec)] = append(stored[family(r.spec)], r.spec)
	}
	for _, r := range in.reqs {
		hint, ok := transfusion.ParseCanonicalKey(r.hint)
		if !ok {
			t.Fatalf("%s: unparsable hint %q", r.key, r.hint)
		}
		want := math.Abs(float64(hint.SeqLen - r.spec.SeqLen))
		for _, s := range stored[family(r.spec)] {
			if k := s.CanonicalKey(); k == r.key || k == r.hint {
				continue
			}
			if math.Abs(float64(s.SeqLen-r.spec.SeqLen)) <= want {
				t.Errorf("%s: %d is as near as the seeded %d", r.key, s.SeqLen, hint.SeqLen)
			}
		}
	}
}
