package main

import (
	"bytes"
	"slices"
	"testing"
)

// sequence draws the first n serve-mix request bodies for seed.
func sequence(seed uint64, n int) [][]byte {
	m := newMix(seed)
	out := make([][]byte, n)
	for i := range out {
		out[i] = m.next(i).body
	}
	return out
}

func TestMixIsSeeded(t *testing.T) {
	const n = 400
	a, b, c := sequence(7, n), sequence(7, n), sequence(8, n)
	if !slices.EqualFunc(a, b, bytes.Equal) {
		t.Error("the same seed gave two different request sequences")
	}
	if slices.EqualFunc(a, c, bytes.Equal) {
		t.Error("seeds 7 and 8 gave the same request sequence")
	}
}

func TestMixShape(t *testing.T) {
	m := newMix(3)
	seen := map[string]bool{}
	for i := 0; i < 400; i++ {
		r := m.next(i)
		if r.hot >= 0 {
			continue
		}
		if seen[string(r.body)] {
			t.Fatalf("fresh request %s repeats", r.body)
		}
		seen[string(r.body)] = true
	}
	if len(seen) != 400/missEvery {
		t.Errorf("%d misses in 400 requests, want %d", len(seen), 400/missEvery)
	}
}

func TestBoardSeedsAreSeeded(t *testing.T) {
	a, b, c := boardSeeds(7, boardInputs), boardSeeds(7, boardInputs), boardSeeds(8, boardInputs)
	if !slices.Equal(a, b) {
		t.Error("the same seed gave two different board inputs")
	}
	if slices.Equal(a, c) {
		t.Error("seeds 7 and 8 gave the same board inputs")
	}
	slices.Sort(a)
	if len(slices.Compact(a)) != boardInputs {
		t.Errorf("board inputs %v are not distinct", a)
	}
}
