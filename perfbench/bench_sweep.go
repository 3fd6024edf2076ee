package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"

	"epiphany"
	"epiphany/internal/sweep"
	"epiphany/internal/system"
	"epiphany/internal/workload"
)

// goldenPath is the checked-in CSV of the scaling study's e16, e64 and
// cluster-2x2 rows, relative to the repository root.
const goldenPath = "testdata/scaling_study_golden.csv"

// sweepBench is the sweep-scaling workload: one op is the registered
// 60-cell scaling-1024 study (e16 up to 1024 cores, power model
// attached) on one Runner worker. Its inputs are the plan's own fixed
// seeds, so --seed does not change them.
type sweepBench struct {
	golden string // golden rows, header first
	want   string // the CSV every op must reproduce byte for byte
}

func newSweepBench(uint64) (bench, error) {
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, fmt.Errorf("sweep-scaling needs the repository's golden CSV: %w", err)
	}
	return &sweepBench{golden: string(b)}, nil
}

// setup runs a cold op: the study has no state outside a Sweep call, so
// warming it means running it.
func (b *sweepBench) setup(ctx context.Context) error {
	out, err := b.op(ctx, 0)
	if err != nil {
		return err
	}
	if b.want == "" {
		if err := b.checkGolden(out.(string)); err != nil {
			return err
		}
		b.want = out.(string)
	}
	return b.check(0, out, false)
}

func (b *sweepBench) op(ctx context.Context, _ int) (any, error) {
	res, err := epiphany.Sweep(ctx, epiphany.ScalingStudyPlan(), 1)
	if err != nil {
		return nil, err
	}
	for _, c := range res.Cells {
		if c.Err != "" {
			return nil, fmt.Errorf("cell %s on %s: %s", c.Workload, c.Topology, c.Err)
		}
	}
	return res.CSV(), nil
}

func (b *sweepBench) check(_ int, out any, traced bool) error {
	if out.(string) != b.want {
		if traced {
			return errors.New("traced replay's CSV differs from the untraced op's")
		}
		return errors.New("CSV differs from the first op's")
	}
	return nil
}

// checkGolden compares the study's e16, e64 and cluster-2x2 rows with
// the golden CSV.
func (b *sweepBench) checkGolden(csv string) error {
	lines := strings.Split(strings.TrimSuffix(csv, "\n"), "\n")
	kept := []string{lines[0]}
	for _, l := range lines[1:] {
		f := strings.Split(l, ",")
		if len(f) > 1 && (f[1] == "e16" || f[1] == "e64" || f[1] == "cluster-2x2") {
			kept = append(kept, l)
		}
	}
	if got := strings.Join(kept, "\n") + "\n"; got != b.golden {
		return fmt.Errorf("scaling study rows differ from %s", goldenPath)
	}
	return nil
}

// tracedOp replays the study layer by layer: planning (Normalize,
// Expand, CellJob), each cell through a one-worker Runner with its
// Workload.Run instrumented, then Derive and CSV rendering. It builds
// the same jobs Sweep does, so it must render the same bytes.
func (b *sweepBench) tracedOp(ctx context.Context, _ int, lt *layerTrace) (any, error) {
	ps := lt.begin("sweep.plan", lt.root)
	p, err := epiphany.ScalingStudyPlan().Normalize()
	if err != nil {
		return nil, err
	}
	cells := p.Expand()
	jobs := make([]workload.Job, len(cells))
	cores := make([]int, len(cells))
	for i, c := range cells {
		if jobs[i], cores[i], err = p.CellJob(c); err != nil {
			return nil, err
		}
	}
	lt.end(ps)

	r := &workload.Runner{Workers: 1}
	res := &sweep.Result{Plan: p, Cells: make([]sweep.CellResult, len(cells))}
	for i, c := range cells {
		js := lt.begin("workload.RunJob", lt.root)
		job := jobs[i]
		job.Workload = lt.wrap(job.Workload, js)
		jr := r.RunJob(ctx, job)
		lt.end(js)
		if jr.Err != nil {
			return nil, fmt.Errorf("cell %s on %s: %w", c.Workload, c.Topo.Key(), jr.Err)
		}
		res.Cells[i] = sweep.NewCellResult(c, cores[i], jr)
	}

	rs := lt.begin("sweep.render", lt.root)
	res.Derive()
	csv := res.CSV()
	lt.end(rs)
	return csv, nil
}

// finishTrace probes board construction and Reset on every topology of
// the study.
func (b *sweepBench) finishTrace(ctx context.Context, lt *layerTrace, _ metrics) error {
	p, err := epiphany.ScalingStudyPlan().Normalize()
	if err != nil {
		return err
	}
	topos := make([]system.Topology, len(p.Topos))
	for i, t := range p.Topos {
		if topos[i], err = t.Resolve(); err != nil {
			return err
		}
	}
	return probeStencil(ctx, lt, topos)
}
