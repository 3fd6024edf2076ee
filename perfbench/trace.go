package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
	"weak"

	"epiphany/internal/system"
	"epiphany/internal/workload"
)

// span is one timed call into a layer. Spans of one op share Op; Parent
// is the enclosing span's ID (0 for the op's root).
type span struct {
	Name   string
	ID     int
	Parent int
	Op     int
	Start  time.Duration
	End    time.Duration
}

// counts are the exact per-op counts the traced replay reads off the
// simulator after each Workload.Run: engine statistics
// (sim.EngineStats), the board's activity counters
// (System.EnergyCounters) and the run's Metrics.
type counts struct {
	// Events excludes the parallel scheduler's booking retries, which
	// are scheduling artefacts rather than simulated events; with them
	// removed the count is the same for every worker count.
	Events         uint64
	ELinkCrossings uint64
	C2CBytes       uint64
	MeshByteHops   uint64
	DRAMBytes      uint64
	Flops          uint64
}

func (c *counts) add(o counts) {
	c.Events += o.Events
	c.ELinkCrossings += o.ELinkCrossings
	c.C2CBytes += o.C2CBytes
	c.MeshByteHops += o.MeshByteHops
	c.DRAMBytes += o.DRAMBytes
	c.Flops += o.Flops
}

// layerTrace collects a traced phase: spans kept in memory and written
// out at the end, the per-op exact counts, and the scheduler and board
// counters summed over the phase.
type layerTrace struct {
	t0    time.Time
	spans []span
	op    int
	root  int

	perOp    []counts // exact counts per traced op
	totals   counts
	runNS    int64
	parks    uint64
	rounds   uint64
	cross    uint64
	phaseNS  int64
	heapPeak int
	built    int // boards first met after the first traced op
	reused   int
	opsDone  int
	boards   map[weak.Pointer[system.System]]struct{}
}

func newLayerTrace() *layerTrace {
	return &layerTrace{t0: time.Now(), boards: make(map[weak.Pointer[system.System]]struct{})}
}

// begin opens a span under parent and returns its ID.
func (lt *layerTrace) begin(name string, parent int) int {
	id := len(lt.spans) + 1
	lt.spans = append(lt.spans, span{Name: name, ID: id, Parent: parent, Op: lt.op, Start: time.Since(lt.t0)})
	return id
}

// end closes span id.
func (lt *layerTrace) end(id int) { lt.spans[id-1].End = time.Since(lt.t0) }

func (lt *layerTrace) beginOp(i int) {
	lt.op = i
	lt.root = lt.begin("op", 0)
	lt.perOp = append(lt.perOp, counts{})
}

func (lt *layerTrace) endOp() {
	lt.end(lt.root)
	lt.forgetBoards()
	lt.opsDone++
}

// durations returns the durations of every span called name, in ms.
func (lt *layerTrace) durations(name string) []float64 {
	var ds []float64
	for _, s := range lt.spans {
		if s.Name == name {
			ds = append(ds, float64((s.End-s.Start).Nanoseconds())/1e6)
		}
	}
	return ds
}

// wrap returns w instrumented for the traced replay: its Run is timed
// as a "workload.Run" span under parent, the board it is handed is
// classified as freshly built or reused (by identity, through a weak
// pointer so the record keeps no board alive), and after the run the
// engine statistics and activity counters are read off the board. The
// wrapper forwards Reseed and FitTopology, so the Runner prepares it
// exactly as it prepares w.
func (lt *layerTrace) wrap(w workload.Workload, parent int) workload.Workload {
	return &tracedWorkload{inner: w, lt: lt, parent: parent}
}

type tracedWorkload struct {
	inner  workload.Workload
	lt     *layerTrace
	parent int
}

func (t *tracedWorkload) Name() string    { return t.inner.Name() }
func (t *tracedWorkload) Validate() error { return t.inner.Validate() }

func (t *tracedWorkload) Reseed(seed uint64) workload.Workload {
	r, ok := t.inner.(workload.Reseeder)
	if !ok {
		return t
	}
	return &tracedWorkload{inner: r.Reseed(seed), lt: t.lt, parent: t.parent}
}

func (t *tracedWorkload) FitTopology(rows, cols int) workload.Workload {
	f, ok := t.inner.(workload.TopologyFitter)
	if !ok {
		return t
	}
	return &tracedWorkload{inner: f.FitTopology(rows, cols), lt: t.lt, parent: t.parent}
}

func (t *tracedWorkload) Run(ctx context.Context, sys *system.System) (workload.Result, error) {
	lt := t.lt
	// The first traced op only records the boards it meets: a pooled
	// board built before the traced phase would otherwise count as built.
	key := weak.Make(sys)
	_, seen := lt.boards[key]
	lt.boards[key] = struct{}{}
	switch {
	case lt.opsDone == 0:
	case seen:
		lt.reused++
	default:
		lt.built++
	}
	id := lt.begin("workload.Run", t.parent)
	res, err := t.inner.Run(ctx, sys)
	lt.end(id)
	if err != nil {
		return res, err
	}
	s := lt.spans[id-1]
	lt.runNS += (s.End - s.Start).Nanoseconds()
	st := sys.Engine().Stats()
	m := res.Metrics()
	ec := sys.EnergyCounters(m.Elapsed)
	c := counts{
		Events:         st.Events - st.BookingParks,
		ELinkCrossings: m.ELinkCrossings,
		C2CBytes:       ec.C2CBytes,
		MeshByteHops:   ec.MeshByteHops,
		DRAMBytes:      ec.DRAMBytes,
		Flops:          ec.Flops,
	}
	lt.perOp[len(lt.perOp)-1].add(c)
	lt.totals.add(c)
	lt.parks += st.BookingParks
	lt.rounds += st.BarrierRounds
	lt.cross += st.CrossPosts
	lt.phaseNS += st.PhaseAWallNS + st.PhaseBWallNS
	for _, sh := range st.PerShard {
		lt.heapPeak = max(lt.heapPeak, sh.HeapPeak)
	}
	return res, nil
}

// forgetBoards drops identity records of boards that were collected.
func (lt *layerTrace) forgetBoards() {
	for k := range lt.boards {
		if k.Value() == nil {
			delete(lt.boards, k)
		}
	}
}

// layerMetrics fills the per-layer metrics every workload reports from
// the spans and counts; metrics a workload does not exercise read 0.
func (lt *layerTrace) layerMetrics(out metrics, ops int) {
	n := float64(ops)
	set := func(name string, v float64, unit string) {
		if _, done := out[name]; !done {
			out[name] = metric{v, unit}
		}
	}
	p50 := func(name string) float64 { return percentile(lt.durations(name), 50) }
	set("system.build_ms", p50("system.NewTopology"), "ms")
	set("system.reset_ms", p50("system.Reset"), "ms")
	set("system.builds_per_op", ratio(float64(lt.built), float64(ops-1)), "count")
	set("workload.pool_reuse_ratio", ratio(float64(lt.reused), float64(lt.built+lt.reused)), "ratio")
	set("workload.run_ms", p50("workload.Run"), "ms")
	set("workload.runjob_ms", p50("workload.RunJob"), "ms")
	set("sim.events_per_op", float64(lt.totals.Events)/n, "count")
	set("sim.ns_per_event", ratio(float64(lt.runNS), float64(lt.totals.Events)), "ns")
	set("sim.heap_peak", float64(lt.heapPeak), "count")
	set("sim.barrier_rounds_per_op", float64(lt.rounds)/n, "count")
	set("sim.cross_posts_per_op", float64(lt.cross)/n, "count")
	set("sim.booking_parks_per_op", float64(lt.parks)/n, "count")
	set("sim.phase_wall_share", ratio(float64(lt.phaseNS), float64(lt.runNS)), "ratio")
	set("fabric.elink_crossings_per_op", float64(lt.totals.ELinkCrossings)/n, "count")
	set("fabric.c2c_bytes_per_op", float64(lt.totals.C2CBytes)/n, "bytes")
	set("fabric.mesh_byte_hops_per_op", float64(lt.totals.MeshByteHops)/n, "bytes")
	set("fabric.dram_bytes_per_op", float64(lt.totals.DRAMBytes)/n, "bytes")
	set("core.flops_per_op", float64(lt.totals.Flops)/n, "count")
	set("sweep.plan_ms", p50("sweep.plan"), "ms")
	set("sweep.render_ms", p50("sweep.render"), "ms")
	for _, d := range []struct{ name, unit string }{
		{"serve.hit_ms", "ms"}, {"serve.miss_ms", "ms"}, {"serve.fingerprint_ms", "ms"},
		{"serve.hit_ratio", "ratio"}, {"serve.stage_queue_s", "s"},
		{"serve.stage_simulate_s", "s"}, {"serve.stage_render_s", "s"},
	} {
		set(d.name, 0, d.unit)
	}
	for _, g := range profileGroups {
		set(g+".cpu_share", 0, "ratio")
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// checkInvariance fails when the exact counts differ across the traced
// ops of this run, or from the counts an earlier run of the same group
// recorded in the output directory (the board-768 workloads share one
// record, so sequential and parallel runs must agree too).
func checkInvariance(group string, lt *layerTrace) error {
	if len(lt.perOp) == 0 {
		return fmt.Errorf("invariance: no traced ops")
	}
	first := lt.perOp[0]
	for i, c := range lt.perOp {
		if c != first {
			return fmt.Errorf("invariance: traced op %d counts %+v differ from op 0's %+v", i, c, first)
		}
	}
	fmt.Printf("invariants (exact, per op): %+v\n", first)
	dir := outDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "invariants-"+group+".json")
	if b, err := os.ReadFile(path); err == nil {
		var prev counts
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Errorf("invariance: %s: %w", path, err)
		}
		if prev != first {
			return fmt.Errorf("invariance: counts %+v differ from an earlier run's %+v (%s)", first, prev, path)
		}
		return nil
	}
	b, err := json.Marshal(first)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// probeStencil probes board construction and Reset on each topology,
// running the stencil-tuned preset fitted to the board in between.
func probeStencil(ctx context.Context, lt *layerTrace, topos []system.Topology) error {
	w, ok := workload.ByName("stencil-tuned")
	if !ok {
		return errors.New("stencil-tuned is not registered")
	}
	for _, topo := range topos {
		fitted := w.(workload.TopologyFitter).FitTopology(topo.Rows(), topo.Cols())
		if err := probeBoard(ctx, lt, topo, fitted); err != nil {
			return fmt.Errorf("%s: %w", topo, err)
		}
	}
	return nil
}

// probeBoard times system.NewTopology and, after one run of w on the
// board, System.Reset: the two board-layer calls the Runner makes
// internally, which the replay cannot time through it.
func probeBoard(ctx context.Context, lt *layerTrace, topo system.Topology, w workload.Workload) error {
	root := lt.begin("probe", 0)
	defer lt.end(root)
	bs := lt.begin("system.NewTopology", root)
	sys := system.NewTopology(topo)
	lt.end(bs)
	if _, err := w.Run(ctx, sys); err != nil {
		return err
	}
	rs := lt.begin("system.Reset", root)
	err := sys.Reset()
	lt.end(rs)
	return err
}

// outDir is where traces and invariance records go: PERFBENCH_OUT, set
// by run.sh, or .bench_build/perfbench under the working directory.
func outDir() string {
	if d := os.Getenv("PERFBENCH_OUT"); d != "" {
		return d
	}
	return filepath.Join(".bench_build", "perfbench")
}

// write exports the spans as Chrome trace-event JSON (open it in
// ui.perfetto.dev), one track per op.
func (lt *layerTrace) write(name string, seed uint64) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(lt.spans))
	for i, s := range lt.spans {
		evs[i] = event{
			Name: s.Name, Ph: "X", PID: 1, TID: s.Op,
			TS:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	dir := outDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(lt.spans), path)
	return nil
}
