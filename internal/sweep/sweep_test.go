package sweep

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"

	"epiphany/internal/sim"
	"epiphany/internal/system"
	"epiphany/internal/workload"
)

func TestParseTopo(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Topo
		key  string
	}{
		{"e16", Topo{Preset: "e16"}, "e16"},
		{"cluster-2x2", Topo{Preset: "cluster-2x2"}, "cluster-2x2"},
		{"4x8", Topo{MeshRows: 4, MeshCols: 8}, "4x8"},
		{"e64/c2c=40:600", Topo{Preset: "e64", C2CBytePeriod: 40, C2CHopLatency: 600}, "e64/c2c=40:600"},
		{"2x2/c2c=5:0", Topo{MeshRows: 2, MeshCols: 2, C2CBytePeriod: 5}, "2x2/c2c=5:0"},
		{"cluster-2x2/shards=2", Topo{Preset: "cluster-2x2", Shards: 2}, "cluster-2x2/shards=2"},
		{"cluster-2x2/shards=1", Topo{Preset: "cluster-2x2", Shards: 1}, "cluster-2x2/shards=1"},
		{"cluster-2x2/c2c=40:600/shards=4", Topo{Preset: "cluster-2x2", C2CBytePeriod: 40, C2CHopLatency: 600, Shards: 4}, "cluster-2x2/c2c=40:600/shards=4"},
	} {
		got, err := ParseTopo(tc.in)
		if err != nil {
			t.Errorf("ParseTopo(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseTopo(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
		if got.Key() != tc.key {
			t.Errorf("ParseTopo(%q).Key() = %q, want %q", tc.in, got.Key(), tc.key)
		}
		if _, err := got.Resolve(); err != nil {
			t.Errorf("ParseTopo(%q).Resolve(): %v", tc.in, err)
		}
	}
	for _, bad := range []string{"", "e63", "0x4", "4x", "e64/c2c=40", "e64/c2c=a:b", "99x99",
		"grid=0x4", "grid=8x8/chip=8x8", "cluster4x4", "e64x3", "grid=4x4/chip=ax8",
		"cluster-2x2/shards=8",            // > NumChips
		"cluster-2x2/shards=-1",           // negative
		"cluster-2x2/shards=x",            // not a count
		"cluster-2x2/shards=2/c2c=40:600", // shards must go last
	} {
		if _, err := ParseTopo(bad); err == nil {
			t.Errorf("ParseTopo(%q) accepted", bad)
		}
	}

	// The /shards= suffix belongs in the Shards field on the JSON path,
	// same as /c2c=: a Spec smuggling it in is rejected, not folded.
	if _, err := (Topo{Spec: "cluster-4x4/shards=2"}).Resolve(); err == nil || !strings.Contains(err.Error(), "shards field") {
		t.Errorf("Spec with inline /shards= resolved: %v", err)
	}
}

// TestParseTopoSpecAxis: grammar specs land in the Spec field in
// canonical spelling - however they were typed - with presets and
// ad-hoc meshes migrated to their own fields, so equal boards always
// produce equal axis values.
func TestParseTopoSpecAxis(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Topo
	}{
		{"grid=4x4/chip=8x8", Topo{Spec: "grid=4x4/chip=8x8"}},
		{"grid=2x4", Topo{Spec: "grid=2x4/chip=8x8"}}, // /chip= default made explicit
		{"cluster-4x4", Topo{Spec: "cluster-4x4"}},
		{"e64x16", Topo{Spec: "e64x16"}},
		{"grid=1x1/chip=8x8", Topo{Spec: "grid=1x1/chip=8x8"}}, // not aliased onto e64
		{"grid=2x2/chip=4x4/c2c=40:600", Topo{Spec: "grid=2x2/chip=4x4", C2CBytePeriod: 40, C2CHopLatency: 600}},
		{"grid=4x4/chip=8x8/shards=16", Topo{Spec: "grid=4x4/chip=8x8", Shards: 16}},
		{"grid=2x4/shards=4", Topo{Spec: "grid=2x4/chip=8x8", Shards: 4}},
		{"cluster-+2x2", Topo{Preset: "cluster-2x2"}}, // spells the preset: migrates to Preset
		{"+4x8", Topo{MeshRows: 4, MeshCols: 8}},
	} {
		got, err := ParseTopo(tc.in)
		if err != nil {
			t.Errorf("ParseTopo(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseTopo(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
		// The axis value round-trips through its own key.
		back, err := ParseTopo(got.Key())
		if err != nil || back != got {
			t.Errorf("ParseTopo(Key %q) = %+v, %v; want %+v", got.Key(), back, err, got)
		}
	}

	// A Spec written directly into a plan (the JSON path) resolves and
	// canonicalizes during Normalize: alternate spellings of one board
	// dedupe to a single axis value.
	p, err := Plan{
		Workloads: []string{"stencil-tuned"},
		Topos: []Topo{
			{Spec: "grid=2x4"},
			{Spec: "grid=+2x4/chip=8x8"},
			{Spec: "e64"}, // names the preset: canonicalizes into Preset
		},
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Topos) != 2 {
		t.Fatalf("alternate spellings did not dedupe: %+v", p.Topos)
	}
	if p.Topos[0] != (Topo{Preset: "e64"}) || p.Topos[1] != (Topo{Spec: "grid=2x4/chip=8x8"}) {
		t.Fatalf("canonicalized axis %+v", p.Topos)
	}

	// Both Preset and Spec set is ambiguous, and c2c suffixes belong in
	// the override fields on the structured axis.
	if _, err := (Topo{Preset: "e64", Spec: "grid=2x4"}).Resolve(); err == nil {
		t.Error("Topo with both preset and spec accepted")
	}
	if _, err := (Topo{Spec: "e64/c2c=40:600"}).Resolve(); err == nil {
		t.Error("c2c suffix inside the spec field accepted")
	}
}

func TestNormalizeDefaultsAndCanonicalOrder(t *testing.T) {
	p, err := Plan{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Workloads) != len(workload.All()) {
		t.Fatalf("default plan has %d workloads, registry %d", len(p.Workloads), len(workload.All()))
	}
	for i := 1; i < len(p.Workloads); i++ {
		if p.Workloads[i-1] >= p.Workloads[i] {
			t.Fatalf("workloads not sorted: %v", p.Workloads)
		}
	}
	keys := make([]string, len(p.Topos))
	for i, topo := range p.Topos {
		keys[i] = topo.Key()
	}
	// Scaling order: core count first (e16's 16 cores lead), then key
	// (cluster-2x2 before e64 at 64 cores).
	if got := strings.Join(keys, ","); got != "e16,cluster-2x2,e64" {
		t.Fatalf("default topology axis %q", got)
	}
	if p.Baseline != "e16" {
		t.Fatalf("default baseline %q, want e16", p.Baseline)
	}

	// Duplicates collapse; explicit axes sort the same way however they
	// were written.
	p2, err := Plan{
		Workloads: []string{"stencil-tuned", "matmul-cannon", "stencil-tuned"},
		Topos:     []Topo{{Preset: "e64"}, {Preset: "e16"}, {Preset: "e64"}},
		Seeds:     []uint64{9, 3, 9},
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Workloads) != 2 || p2.Workloads[0] != "matmul-cannon" {
		t.Fatalf("workload axis %v", p2.Workloads)
	}
	if len(p2.Topos) != 2 || p2.Topos[0].Key() != "e16" || p2.Baseline != "e16" {
		t.Fatalf("topology axis %v baseline %q", p2.Topos, p2.Baseline)
	}
	if len(p2.Seeds) != 2 || p2.Seeds[0] != 3 || p2.Seeds[1] != 9 {
		t.Fatalf("seed axis %v", p2.Seeds)
	}
}

func TestNormalizeRejects(t *testing.T) {
	if _, err := (Plan{Workloads: []string{"no-such"}}).Normalize(); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := (Plan{Topos: []Topo{{Preset: "e63"}}}).Normalize(); err == nil {
		t.Error("unknown preset accepted")
	}
	if _, err := (Plan{Baseline: "cluster-9x9"}).Normalize(); err == nil {
		t.Error("baseline off the topology axis accepted")
	}
}

// TestDeriveColumns checks the derived-column arithmetic on synthetic
// cells, including the failure and missing-baseline edge cases.
func TestDeriveColumns(t *testing.T) {
	seed := uint64(7)
	mk := func(w, topo string, seed *uint64, cores int, elapsed, cross sim.Time, errs string) CellResult {
		c := CellResult{Workload: w, Topology: topo, Seed: seed, Cores: cores, Err: errs}
		c.Metrics.Elapsed = elapsed
		c.Metrics.ELinkCrossTime = cross
		return c
	}
	r := &Result{
		Plan: Plan{Baseline: "e16"},
		Cells: []CellResult{
			mk("a", "e16", nil, 4, 1000, 0, ""),
			mk("a", "e64", nil, 16, 250, 0, ""),         // 4x faster on 4x the cores
			mk("a", "e64", &seed, 16, 500, 0, ""),       // no e16 cell at this seed
			mk("b", "e16", nil, 8, 0, 0, "boom"),        // failed baseline
			mk("b", "e64", nil, 8, 300, 0, ""),          // baseline failed -> no speedup
			mk("c", "e16", nil, 4, 400, 0, ""),          // baseline of itself
			mk("c", "cluster-2x2", nil, 16, 800, 0, ""), // 2x slower on 4x cores
		},
	}
	r.Derive()
	want := []struct{ speedup, eff float64 }{
		{1, 1},
		{4, 1},
		{0, 0},
		{0, 0},
		{0, 0},
		{1, 1},
		{0.5, 0.125},
	}
	for i, w := range want {
		if got := r.Cells[i]; got.Speedup != w.speedup || got.Efficiency != w.eff {
			t.Errorf("cell %d (%s/%s): speedup=%v efficiency=%v, want %v/%v",
				i, got.Workload, got.Topology, got.Speedup, got.Efficiency, w.speedup, w.eff)
		}
	}
}

// TestRunDeterministicAcrossWorkers is the acceptance property: the
// same plan renders bit-identical bytes on repeated runs and with any
// worker count, in every output format.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	plan := Plan{
		Workloads: []string{"stencil-tuned", "matmul-cannon", "stream-stencil"},
		Topos:     []Topo{{Preset: "e16"}, {Preset: "e64"}, {Preset: "cluster-2x2"}},
	}
	render := func(workers int) [4]string {
		res, err := Run(context.Background(), plan, workers)
		if err != nil {
			t.Fatal(err)
		}
		js, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return [4]string{res.Text(), res.Markdown(), res.CSV(), string(js)}
	}
	first := render(1)
	for _, workers := range []int{1, 8} {
		if got := render(workers); got != first {
			t.Fatalf("output differs with %d workers", workers)
		}
	}
}

// TestRunRecordsCellErrors: a cell whose workload cannot run on its
// topology fails alone; the rest of the grid still executes and the
// failed cell keeps its position with empty derived columns.
func TestRunRecordsCellErrors(t *testing.T) {
	res, err := Run(context.Background(), Plan{
		Workloads: []string{"sweep-test-bad", "stencil-tuned"},
		Topos:     []Topo{{Preset: "e16"}},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("%d cells, want 2", len(res.Cells))
	}
	for _, c := range res.Cells {
		switch c.Workload {
		case "sweep-test-bad":
			if c.Err == "" {
				t.Error("failing workload's cell has no error")
			}
			if c.Speedup != 0 || c.Metrics.Elapsed != 0 {
				t.Errorf("failed cell carries data: %+v", c)
			}
		case "stencil-tuned":
			if c.Err != "" {
				t.Errorf("healthy cell failed: %s", c.Err)
			}
			if c.Metrics.Elapsed == 0 {
				t.Error("healthy cell has no metrics")
			}
		}
	}
	if !strings.Contains(res.CSV(), "sweep-test-bad") {
		t.Error("failed cell missing from CSV")
	}
}

// TestRunWithSeedsAndOverrides: the seed axis multiplies the grid and a
// c2c-overridden cluster is a distinct, slower cell than the calibrated
// one.
func TestRunWithSeedsAndOverrides(t *testing.T) {
	res, err := Run(context.Background(), Plan{
		Workloads: []string{"stream-stencil"},
		Topos: []Topo{
			{Preset: "cluster-2x2"},
			{Preset: "cluster-2x2", C2CBytePeriod: 50, C2CHopLatency: 600},
		},
		Seeds:    []uint64{1, 2},
		Baseline: "cluster-2x2",
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("%d cells, want 2 topos x 2 seeds", len(res.Cells))
	}
	byKey := map[string]CellResult{}
	for _, c := range res.Cells {
		if c.Err != "" {
			t.Fatalf("cell %s/%s seed %s failed: %s", c.Workload, c.Topology, seedLabel(c.Seed), c.Err)
		}
		byKey[c.Topology+"@"+seedLabel(c.Seed)] = c
	}
	for _, seed := range []string{"1", "2"} {
		base := byKey["cluster-2x2@"+seed]
		slow := byKey["cluster-2x2/c2c=50:600@"+seed]
		if base.Speedup != 1 || base.Efficiency != 1 {
			t.Errorf("baseline cell seed %s: speedup=%v eff=%v", seed, base.Speedup, base.Efficiency)
		}
		if slow.Metrics.Elapsed <= base.Metrics.Elapsed {
			t.Errorf("seed %s: 10x slower c2c link not slower (%v vs %v)", seed, slow.Metrics.Elapsed, base.Metrics.Elapsed)
		}
		if slow.Speedup >= 1 {
			t.Errorf("seed %s: slowed cell speedup %v >= 1", seed, slow.Speedup)
		}
	}
}

// badWorkload always fails validation; it exercises the per-cell error
// path without touching a board.
type badWorkload struct{}

func (badWorkload) Name() string    { return "sweep-test-bad" }
func (badWorkload) Validate() error { return errBad }
func (badWorkload) Run(context.Context, *system.System) (workload.Result, error) {
	return nil, errBad
}

var errBad = &badErr{}

type badErr struct{}

func (*badErr) Error() string { return "sweep-test-bad: intentionally invalid" }

func init() { workload.Register(badWorkload{}) }

// boardProbe records the board each of its runs got, in run order.
type boardProbe struct{ name string }

type boardRun struct {
	workload string
	sys      *system.System
}

var (
	boardRunsMu sync.Mutex
	boardRuns   []boardRun
)

func (p boardProbe) Name() string    { return p.name }
func (p boardProbe) Validate() error { return nil }
func (p boardProbe) Run(_ context.Context, sys *system.System) (workload.Result, error) {
	if err := sys.Acquire(); err != nil {
		return nil, err
	}
	boardRunsMu.Lock()
	boardRuns = append(boardRuns, boardRun{p.name, sys})
	boardRunsMu.Unlock()
	return probeResult{}, nil
}

type probeResult struct{}

func (probeResult) Metrics() workload.Metrics { return workload.Metrics{} }

func init() {
	workload.Register(boardProbe{"sweep-test-board-a"})
	workload.Register(boardProbe{"sweep-test-board-b"})
}

// TestRunGroupsCellsByBoard: Run submits the workload-major grid
// grouped by board, so one worker builds each topology's board once and
// reuses it across the column, and the cells still come back in
// expansion order.
func TestRunGroupsCellsByBoard(t *testing.T) {
	plan := Plan{
		Workloads: []string{"sweep-test-board-a", "sweep-test-board-b"},
		// More cores than one worker's pool keeps, so an ungrouped
		// workload-major order would rebuild every board.
		Topos: []Topo{{Preset: "e16"}, {Spec: "grid=2x4/chip=8x8"}, {Spec: "grid=4x4/chip=8x8"}},
	}
	boardRuns = nil
	res, err := Run(context.Background(), plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := plan.Normalize()
	for i, c := range n.Expand() {
		if got := res.Cells[i]; got.Workload != c.Workload || got.Topology != c.Topo.Key() || got.Err != "" {
			t.Fatalf("cell %d = %s/%s (%q), want %s/%s in expansion order", i, got.Workload, got.Topology, got.Err, c.Workload, c.Topo.Key())
		}
	}
	if len(boardRuns) != 6 {
		t.Fatalf("%d probe runs, want 6", len(boardRuns))
	}
	boards := map[*system.System]bool{}
	for i, r := range boardRuns {
		boards[r.sys] = true
		if i%2 == 1 && r.sys != boardRuns[i-1].sys {
			t.Errorf("run %d (%s) did not reuse the previous run's board", i, r.workload)
		}
	}
	if len(boards) != 3 {
		t.Errorf("%d boards built for 3 topologies", len(boards))
	}
}

func TestGroupByBoard(t *testing.T) {
	e16, e64 := system.E16, system.E64
	metered := e64.WithPower("epiphany-iv-28nm", "")
	got := groupByBoard([]system.Topology{e16, e64, metered, e16, e64, metered, e64})
	if want := []int{0, 3, 1, 4, 6, 2, 5}; !slices.Equal(got, want) {
		t.Errorf("groupByBoard order = %v, want %v", got, want)
	}
}
