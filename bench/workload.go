package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sort"

	"github.com/fusedmindlab/transfusion"
	"github.com/fusedmindlab/transfusion/internal/serve"
)

// size fixes how much of the spec grid the benchmark covers. fullSize is the
// benchmark; tinySize lets the smoke test drive every workload in seconds
// without changing any code path.
type size struct {
	name   string
	arches []string
	models []string
	// boots is the number of daemon boots per run; setup_s is their median.
	boots int
	// replays caps the specs the traced run replays in-process.
	replays int
	// warmup is the untimed request count before a Zipf workload's timed
	// phase (2% of the request count the workloads were designed around).
	warmup map[string]int
}

var fullSize = size{
	name:    "full",
	arches:  []string{"cloud", "edge", "edge32", "edge64"},
	models:  []string{"bert", "trxl", "t5", "xlm", "llama3"},
	boots:   11,
	replays: 4,
	warmup:  map[string]int{"hot-zipf": 2400, "cluster-zipf": 1200},
}

var tinySize = size{
	name:    "tiny",
	arches:  []string{"edge"},
	models:  []string{"bert"},
	boots:   1,
	replays: 1,
	warmup:  map[string]int{"hot-zipf": 50, "cluster-zipf": 50},
}

const (
	// searchBudget is the TileSeek rollout budget of every transfusion spec.
	searchBudget = 8
	// zipfS is the skew of the Zipf workloads' key popularity.
	zipfS = 1.1
	// zipfStreamLen is the length of a Zipf request sequence before it
	// repeats; far more than any run sends.
	zipfStreamLen = 1 << 20
	// checkEvery selects the search results checked against an in-process
	// reference: every checkEvery-th position of the request sequence.
	checkEvery = 4
	// clusterBasePort is the first of the cluster replicas' fixed loopback
	// ports. The ring hashes replica URLs, so fixed ports keep each replica's
	// key share identical from run to run.
	clusterBasePort = 39101
)

var (
	// seededSeqs are the sequence lengths of the corpus's transfusion plans,
	// and so the warm-start neighbours of the near-miss requests.
	seededSeqs = []int{4096, 16384, 65536}
	// coldSeqs are the sequence lengths cold-search draws from.
	coldSeqs        = []int{1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18}
	baselineSystems = []string{"unfused", "flat", "fusemax", "fusemax+layerfuse"}
	baselineSeqs    = []int{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20}
)

// workload is one traffic mix against the daemon.
type workload struct {
	name     string
	clients  int
	replicas int
	// store boots each replica from a copy of the corpus store.
	store bool
	// cacheEntries is the daemon's -cache-entries; 0 keeps its default.
	cacheEntries int
	// sources are the X-Plan-Source values a correct answer may carry.
	sources []string
	// zipf workloads send a Zipf stream over the corpus keys and check every
	// answer against the corpus; the others send distinct specs that each
	// run a search, checking every checkEvery-th against RunContext.
	zipf bool
}

var workloads = []workload{
	{name: "cold-search", clients: 1, replicas: 1, sources: []string{"search"}},
	{name: "near-miss", clients: 2, replicas: 1, store: true, sources: []string{"warm-search"}},
	{name: "hot-zipf", clients: 2, replicas: 1, store: true, cacheEntries: 128, sources: []string{"memory", "disk"}, zipf: true},
	{name: "cluster-zipf", clients: 2, replicas: 3, store: true, cacheEntries: 64, sources: []string{"memory", "disk", "peer"}, zipf: true},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// request is one distinct plan request.
type request struct {
	spec transfusion.RunSpec
	key  string
	body []byte
	// hint is the canonical key of a near-miss request's seeded neighbour.
	hint string
}

func newRequest(spec transfusion.RunSpec) request {
	body, err := json.Marshal(serve.PlanRequest{
		Arch: spec.Arch, Model: spec.Model, SeqLen: spec.SeqLen, System: spec.System,
		SearchBudget: spec.SearchBudget, Causal: spec.Causal,
	})
	if err != nil {
		panic(err) // a struct of strings, ints and bools always marshals
	}
	return request{spec: spec, key: spec.CanonicalKey(), body: body}
}

// inputs is a workload's request sequence.
type inputs struct {
	reqs []request
	// order, when set, is a repeating sequence of indices into reqs (a Zipf
	// stream); otherwise the sequence is reqs itself, sent once.
	order []int32
}

func searchSpec(arch, model string, seq int, causal bool) transfusion.RunSpec {
	return transfusion.RunSpec{Arch: arch, Model: model, SeqLen: seq, System: "transfusion", SearchBudget: searchBudget, Causal: causal}
}

// corpusSpecs lists the plans of the template store, sorted by key: a
// transfusion plan per (arch, model, causal) family at each seeded length,
// and every baseline system over the same arches and models.
func corpusSpecs(sz size) []transfusion.RunSpec {
	var specs []transfusion.RunSpec
	for _, a := range sz.arches {
		for _, m := range sz.models {
			for _, causal := range []bool{false, true} {
				for _, s := range seededSeqs {
					specs = append(specs, searchSpec(a, m, s, causal))
				}
			}
			for _, sys := range baselineSystems {
				for _, s := range baselineSeqs {
					specs = append(specs, transfusion.RunSpec{Arch: a, Model: m, SeqLen: s, System: sys})
				}
			}
		}
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].CanonicalKey() < specs[j].CanonicalKey() })
	return specs
}

// rngFor seeds the generator of one workload's inputs.
func rngFor(name string, seed uint64) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// genInputs returns w's request sequence for seed. It is a pure function of
// (w.name, seed, sz).
func genInputs(w workload, seed uint64, sz size) inputs {
	r := rngFor(w.name, seed)
	switch w.name {
	case "cold-search":
		return inputs{reqs: roundRobin(r, coldFamilies(sz))}
	case "near-miss":
		return inputs{reqs: roundRobin(r, nearFamilies(sz))}
	default:
		specs := corpusSpecs(sz)
		reqs := make([]request, len(specs))
		for i, s := range specs {
			reqs[i] = newRequest(s)
		}
		// Popularity ranks go to keys in a seeded order.
		r.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
		cdf := zipfCDF(len(reqs), zipfS)
		order := make([]int32, zipfStreamLen)
		for i := range order {
			order[i] = int32(zipfDraw(cdf, r.Float64()))
		}
		return inputs{reqs: reqs, order: order}
	}
}

// roundRobin shuffles each family's requests, then interleaves the
// families in their fixed order, one request from each per round. Every
// prefix of the sequence then covers the families evenly, so the cost mix
// of a time-bounded run barely depends on the seed.
func roundRobin(r *rand.Rand, fams [][]request) []request {
	rounds := 0
	for _, f := range fams {
		r.Shuffle(len(f), func(i, j int) { f[i], f[j] = f[j], f[i] })
		rounds = max(rounds, len(f))
	}
	var out []request
	for k := 0; k < rounds; k++ {
		for _, f := range fams {
			if k < len(f) {
				out = append(out, f[k])
			}
		}
	}
	return out
}

// coldFamilies groups the cold-search specs by (arch, model): every
// power-of-two length from 1K to 256K, causal or not, except the lengths the
// corpus holds.
func coldFamilies(sz size) [][]request {
	seeded := make(map[int]bool)
	for _, s := range seededSeqs {
		seeded[s] = true
	}
	var fams [][]request
	for _, a := range sz.arches {
		for _, m := range sz.models {
			var f []request
			for _, s := range coldSeqs {
				for _, causal := range []bool{false, true} {
					if !seeded[s] {
						f = append(f, newRequest(searchSpec(a, m, s, causal)))
					}
				}
			}
			fams = append(fams, f)
		}
	}
	return fams
}

// nearFamilies groups the near-miss specs by (arch, model, causal): a
// quarter below and a quarter above each seeded length. The quarter spacing
// keeps the seeded plan strictly the nearest stored neighbour of every
// request, even after the daemon stores the other requests' results.
func nearFamilies(sz size) [][]request {
	var fams [][]request
	for _, a := range sz.arches {
		for _, m := range sz.models {
			for _, causal := range []bool{false, true} {
				var f []request
				for _, s := range seededSeqs {
					for _, q := range []int{s * 3 / 4, s * 5 / 4} {
						req := newRequest(searchSpec(a, m, q, causal))
						req.hint = searchSpec(a, m, s, causal).CanonicalKey()
						f = append(f, req)
					}
				}
				fams = append(fams, f)
			}
		}
	}
	return fams
}

// next returns the request at sequence position pos and whether the
// sequence reaches that far.
func (in *inputs) next(pos int64) (*request, bool) {
	if in.order != nil {
		return &in.reqs[in.order[pos%int64(len(in.order))]], true
	}
	if pos >= int64(len(in.reqs)) {
		return nil, false
	}
	return &in.reqs[pos], true
}
