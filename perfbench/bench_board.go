package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"epiphany/internal/core"
	"epiphany/internal/system"
	"epiphany/internal/workload"
)

const (
	// boardSpec is a 768-core board: 4x3 chips of 8x8 cores. The
	// 1024-core grid=4x4 board is avoided on purpose: its last chip
	// column lands inside the DRAM address window and full-board jobs
	// deadlock there (see perfbench/README.md).
	boardSpec = "grid=4x3/chip=8x8"
	// boardInputs is how many distinct seeded inputs the ops rotate over.
	boardInputs = 4
	// stencilTol is the absolute tolerance the core package's stencil
	// tests allow against core.StencilReference.
	stencilTol = 1e-3
)

// boardBench is the board-768 workload: one op is a full-board stencil
// job (the stencil-tuned per-core shape on a 32x24 workgroup) through
// Runner.RunJob on a pooled board, with the simulation on workers
// goroutines.
type boardBench struct {
	workers int
	topo    system.Topology
	inputs  []core.StencilConfig
	refs    [][][]float32
	digests map[int][32]byte // input index -> digest of the untraced output
	runner  *workload.Runner
}

func newBoardBench(seed uint64, workers int) (bench, error) {
	topo, err := system.ParseTopologySpec(boardSpec)
	if err != nil {
		return nil, err
	}
	w, ok := workload.ByName("stencil-tuned")
	if !ok {
		return nil, errors.New("stencil-tuned is not registered")
	}
	b := &boardBench{workers: workers, topo: topo, digests: map[int][32]byte{}}
	for _, s := range boardSeeds(seed, boardInputs) {
		cfg := w.(*workload.Stencil).Config
		cfg.GroupRows, cfg.GroupCols = topo.Rows(), topo.Cols()
		cfg.Seed = s
		b.inputs = append(b.inputs, cfg)
		b.refs = append(b.refs, core.StencilReference(cfg))
	}
	return b, nil
}

func (b *boardBench) job(i int, wrap func(workload.Workload) workload.Workload, workers int) workload.Job {
	var w workload.Workload = &workload.Stencil{Label: "board-768", Config: b.inputs[i%len(b.inputs)]}
	if wrap != nil {
		w = wrap(w)
	}
	return workload.Job{Workload: w, Options: []workload.Option{
		workload.WithTopology(b.topo), workload.WithWorkers(workers),
	}}
}

// setup starts a fresh Runner and runs the first op on it, which builds
// the board the later ops reuse.
func (b *boardBench) setup(ctx context.Context) error {
	b.runner = &workload.Runner{Workers: 1}
	out, err := b.op(ctx, 0)
	if err != nil {
		return err
	}
	return b.check(0, out, false)
}

func (b *boardBench) op(ctx context.Context, i int) (any, error) {
	jr := b.runner.RunJob(ctx, b.job(i, nil, b.workers))
	if jr.Err != nil {
		return nil, jr.Err
	}
	return stencilGrid(jr.Result)
}

// check compares the grid with the host reference, and its bytes with
// every earlier output of the same input (the traced replay's with the
// untraced op's).
func (b *boardBench) check(i int, out any, traced bool) error {
	k := i % len(b.inputs)
	grid := out.([][]float32)
	ref := b.refs[k]
	if len(grid) != len(ref) {
		return fmt.Errorf("grid has %d rows, want %d", len(grid), len(ref))
	}
	h := sha256.New()
	var word [4]byte
	for r := range ref {
		if len(grid[r]) != len(ref[r]) {
			return fmt.Errorf("row %d has %d columns, want %d", r, len(grid[r]), len(ref[r]))
		}
		for c, v := range grid[r] {
			if d := math.Abs(float64(v - ref[r][c])); !(d <= stencilTol) {
				return fmt.Errorf("cell (%d,%d) = %g, reference %g", r, c, v, ref[r][c])
			}
			binary.LittleEndian.PutUint32(word[:], math.Float32bits(v))
			h.Write(word[:])
		}
	}
	var sum [32]byte
	h.Sum(sum[:0])
	if prev, ok := b.digests[k]; ok && prev != sum {
		if traced {
			return errors.New("traced replay's grid bytes differ from the untraced op's")
		}
		return errors.New("grid bytes differ from an earlier op on the same input")
	}
	b.digests[k] = sum
	return nil
}

func (b *boardBench) tracedOp(ctx context.Context, i int, lt *layerTrace) (any, error) {
	js := lt.begin("workload.RunJob", lt.root)
	jr := b.runner.RunJob(ctx, b.job(i, func(w workload.Workload) workload.Workload { return lt.wrap(w, js) }, b.workers))
	lt.end(js)
	if jr.Err != nil {
		return nil, jr.Err
	}
	return stencilGrid(jr.Result)
}

// finishTrace replays one op with the other worker count, whose exact
// counts must match, then probes board construction and Reset.
func (b *boardBench) finishTrace(ctx context.Context, lt *layerTrace, _ metrics) error {
	other := 3 - b.workers // 1 <-> 2
	cross := newLayerTrace()
	cross.beginOp(0)
	jr := b.runner.RunJob(ctx, b.job(0, func(w workload.Workload) workload.Workload { return cross.wrap(w, cross.root) }, other))
	cross.endOp()
	if jr.Err != nil {
		return jr.Err
	}
	grid, err := stencilGrid(jr.Result)
	if err == nil {
		err = b.check(0, grid, true)
	}
	if err != nil {
		return fmt.Errorf("replay with %d sim workers: %w", other, err)
	}
	if cross.perOp[0] != lt.perOp[0] {
		return fmt.Errorf("invariance: counts with %d sim workers %+v differ from %d workers' %+v",
			other, cross.perOp[0], b.workers, lt.perOp[0])
	}
	fmt.Printf("invariance: %d and %d sim workers agree on the exact counts\n", b.workers, other)
	for i := 0; i < 2; i++ {
		if err := probeBoard(ctx, lt, b.topo, &workload.Stencil{Config: b.inputs[i]}); err != nil {
			return err
		}
	}
	return nil
}

// stencilGrid extracts a stencil job's gathered grid.
func stencilGrid(res workload.Result) ([][]float32, error) {
	sr, ok := workload.Unwrap(res).(*core.StencilResult)
	if !ok {
		return nil, fmt.Errorf("result is %T, not a stencil result", res)
	}
	return sr.Global, nil
}
