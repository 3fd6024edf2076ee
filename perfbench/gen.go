package main

import (
	"encoding/json"
	"math/rand/v2"

	"epiphany/internal/serve"
)

// The seeded input generators. Every input the benchmark hands the
// program derives from the --seed argument through these functions, so
// the same seed replays the same inputs and another seed draws new ones.

// boardSeeds returns n distinct stencil input seeds for the board-768
// workloads.
func boardSeeds(seed uint64, n int) []uint64 {
	rng := rand.New(rand.NewPCG(seed, 0xb0a7d768))
	out := make([]uint64, 0, n)
	seen := map[uint64]bool{}
	for len(out) < n {
		s := rng.Uint64N(1 << 40)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// Misses rotate over the presets within a topology, then move on to
// the next topology: miss k runs preset k mod 4 on topology (k div 4)
// mod 3, so every 12 consecutive misses hold each (preset, topology)
// pair once and each run's miss population has the same composition.
// The service pools one board, so one miss in four changes topology
// and builds a board. The hot set holds each pair once, in the same
// order, so filling it builds only one board per topology.
var (
	mixPresets = []string{"stencil-tuned", "matmul-cannon", "matmul-summa", "stream-stencil"}
	mixTopos   = []string{"e16", "e64", "cluster-2x2"}
)

// missEvery is the request block size: each block of missEvery
// requests holds exactly one miss, at a seeded position, so the miss
// share is 1/missEvery in every run rather than only on average.
const missEvery = 4

// request is one generated POST /v1/jobs request.
type request struct {
	body []byte
	spec serve.JobSpec
	hot  int // index into the hot set, or -1 for a fresh (miss) request
}

// mix generates the serve-mix request sequence.
type mix struct {
	rng     *rand.Rand
	hot     []request
	missAt  int    // position of the miss in the current block
	fresh   uint64 // seed of the next fresh request
	nMisses int
}

func newMix(seed uint64) *mix {
	m := &mix{rng: rand.New(rand.NewPCG(seed, 0x5e7e))}
	// Hot seeds stay below 1<<32 and fresh ones start above it, so a
	// fresh request never repeats a hot one.
	m.fresh = 1<<32 + m.rng.Uint64N(1<<40)
	seen := map[uint64]bool{}
	for i := 0; i < len(mixPresets)*len(mixTopos); i++ {
		s := m.rng.Uint64N(1 << 32)
		for seen[s] {
			s = m.rng.Uint64N(1 << 32)
		}
		seen[s] = true
		m.hot = append(m.hot, newRequest(mixPresets[i%len(mixPresets)], mixTopos[i/len(mixPresets)], s, i))
	}
	return m
}

func newRequest(workload, topo string, seed uint64, hot int) request {
	spec := serve.JobSpec{Workload: workload, Topo: topo, Seed: &seed}
	body, err := json.Marshal(spec)
	if err != nil {
		panic(err) // strings and an integer always marshal
	}
	return request{body: body, spec: spec, hot: hot}
}

// next returns request i of the sequence; requests must be drawn in
// order 0, 1, 2, ...
func (m *mix) next(i int) request {
	if i%missEvery == 0 {
		m.missAt = m.rng.IntN(missEvery)
	}
	if i%missEvery != m.missAt {
		return m.hot[m.rng.IntN(len(m.hot))]
	}
	k := m.nMisses
	m.nMisses++
	m.fresh++
	return newRequest(mixPresets[k%len(mixPresets)], mixTopos[(k/len(mixPresets))%len(mixTopos)], m.fresh, -1)
}
