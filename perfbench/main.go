// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One invocation runs one workload in a single process:
//
//	bash perfbench/run.sh --workload board-768 --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it sets the workload up several times (reporting the
// median set-up time), then runs a closed loop of operations for
// --seconds, checks every operation's output, and prints the end-to-end
// metrics. With --trace 1 it runs half the time untraced under a CPU
// profile and half as a traced replay that calls the simulator's layers
// one by one, and prints the per-layer metrics. The last line of
// standard output is always one JSON object:
//
//	{"correct": true, "attempted": 25, "failed": 0, "metrics": {...}}
//
// The workloads, and why each was chosen, are listed in
// perfbench/README.md and BENCHMARK.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// bench is one workload. run calls setup several times (each
// call builds fresh state and keeps it), then op in a closed loop,
// timing op alone and checking each output with check.
type bench interface {
	// setup builds the workload's client-side state from scratch and
	// warms it: everything a user pays before the first measured op.
	setup(ctx context.Context) error
	// op runs the i-th operation untraced and returns its output.
	op(ctx context.Context, i int) (any, error)
	// check verifies an output of op or tracedOp (traced is true for
	// the latter, which must also reproduce the untraced output bytes).
	check(i int, out any, traced bool) error
	// tracedOp replays the i-th operation through the layers' public
	// calls, recording spans and counts in lt.
	tracedOp(ctx context.Context, i int, lt *layerTrace) (any, error)
	// finishTrace runs the workload's layer probes after the traced
	// loop and adds its own per-layer metrics to m.
	finishTrace(ctx context.Context, lt *layerTrace, m metrics) error
}

// workloads maps each workload name to its constructor, the number
// of set-up repetitions whose median is reported as setup_s, and the
// op count after which heap_live_mb is read.
var workloads = map[string]struct {
	newBench   func(seed uint64) (bench, error)
	setupReps  int
	heapAfter  int    // a whole number of the workload's input cycles
	invariance string // group whose exact counts must agree across runs; "" for none
}{
	"sweep-scaling": {newSweepBench, 5, 2, "sweep-scaling"},
	"board-768":     {func(s uint64) (bench, error) { return newBoardBench(s, 1) }, 5, boardInputs, "board-768"},
	"board-768-par": {func(s uint64) (bench, error) { return newBoardBench(s, 2) }, 5, boardInputs, "board-768"},
	// 12 rotations of the miss cycle: 144 misses, 4 per (preset, topology).
	"serve-mix": {newServeBench, 15, 12 * len(mixPresets) * len(mixTopos) * missEvery, ""},
}

// metrics is the result's metric map: name -> {value, unit}.
type metrics map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run (sweep-scaling, board-768, board-768-par, serve-mix)")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traceFlag == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool) error {
	spec, ok := workloads[name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	printEnv(name, seed, seconds, traced)
	b, err := spec.newBench(seed)
	if err != nil {
		return err
	}
	ctx := context.Background()

	setupCPU := make([]float64, spec.setupReps)
	setupWall := make([]float64, spec.setupReps)
	for r := range setupCPU {
		runtime.GC()
		c0, t0 := cpuTime(), time.Now()
		if err := b.setup(ctx); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupWall[r] = time.Since(t0).Seconds()
		setupCPU[r] = (cpuTime() - c0).Seconds()
	}
	fmt.Printf("set-up CPU s: %v\nset-up wall s: %v\n", setupCPU, setupWall)

	res := result{Correct: true, Metrics: metrics{}}
	if !traced {
		m := measure(ctx, b, time.Duration(seconds*float64(time.Second)), spec.heapAfter, nil)
		res.add(m)
		res.Metrics["setup_s"] = metric{median(setupCPU), "s"}
		m.endToEnd(res.Metrics)
		fmt.Printf("wall clock (not in the result line, see README): setup %.4g s, %s\n",
			median(setupWall), m.wallSummary())
	} else {
		half := time.Duration(seconds * float64(time.Second) / 2)
		prof, err := startProfile()
		if err != nil {
			return err
		}
		plain := measure(ctx, b, half, 0, nil)
		shares, err := prof.stop()
		if err != nil {
			return err
		}
		res.add(plain)
		lt := newLayerTrace()
		tr := measure(ctx, b, half, 0, lt)
		res.add(tr)
		if err := b.finishTrace(ctx, lt, res.Metrics); err != nil {
			res.fail(fmt.Errorf("layer probes: %w", err))
		}
		if spec.invariance != "" {
			if err := checkInvariance(spec.invariance, lt); err != nil {
				res.fail(err)
			}
		}
		lt.layerMetrics(res.Metrics, tr.ops)
		for group, share := range shares {
			res.Metrics[group+".cpu_share"] = metric{share, "ratio"}
		}
		res.Metrics["runtime.gc_cycles_per_op"] = metric{float64(plain.gcCycles) / float64(plain.ops), "count"}
		res.Metrics["trace.overhead"] = metric{percentile(tr.lat, 50) / percentile(plain.lat, 50), "ratio"}
		res.Metrics["wall.ops_per_s"] = metric{float64(plain.ops) / plain.wall.Seconds(), "1/s"}
		res.Metrics["wall.op_p50_ms"] = metric{percentile(plain.lat, 50), "ms"}
		res.Metrics["wall.op_p90_ms"] = metric{percentile(plain.lat, 90), "ms"}
		if err := lt.write(name, seed); err != nil {
			return err
		}
	}
	res.report()
	return nil
}

// measured is one closed-loop phase.
type measured struct {
	ops, failed int
	lat         []float64 // per-op latency, ms
	opCPU       []float64 // per-op process CPU time, ms
	wall        time.Duration
	cpu         time.Duration
	allocBytes  uint64
	gcCycles    uint32
	heapLive    float64 // live heap, MiB, after a forced collection; 0 when not read
	errs        []error
}

// measure runs a closed loop of ops (traced ones when lt is non-nil)
// for at least d, at least two ops and at least heapAfter ops. Only op
// itself is timed; the output check runs between ops. When heapAfter
// is positive, the live heap is read once, after op heapAfter-1 and a
// forced collection, so the figure depends on the work done and not on
// how fast it ran; that collection is left out of the phase's CPU,
// wall time and GC count.
func measure(ctx context.Context, b bench, d time.Duration, heapAfter int, lt *layerTrace) measured {
	runtime.GC()
	var m measured
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	var heapCPU, heapWall time.Duration
	for i := 0; i < max(2, heapAfter) || time.Since(start)-heapWall < d; i++ {
		var out any
		var err error
		c0 := cpuTime()
		t0 := time.Now()
		if lt == nil {
			out, err = b.op(ctx, i)
		} else {
			lt.beginOp(i)
			out, err = b.tracedOp(ctx, i, lt)
			lt.endOp()
		}
		m.lat = append(m.lat, float64(time.Since(t0).Nanoseconds())/1e6)
		m.opCPU = append(m.opCPU, float64((cpuTime()-c0).Nanoseconds())/1e6)
		if err == nil {
			err = b.check(i, out, lt != nil)
		}
		if err != nil {
			m.failed++
			if len(m.errs) < 5 {
				m.errs = append(m.errs, fmt.Errorf("op %d: %w", i, err))
			}
		}
		m.ops++
		if m.ops == heapAfter {
			c0, t0 := cpuTime(), time.Now()
			runtime.GC()
			m.heapLive = heapLiveMiB()
			heapWall, heapCPU = time.Since(t0), cpuTime()-c0
		}
	}
	m.wall = time.Since(start) - heapWall
	m.cpu = cpuTime() - cpu0 - heapCPU
	runtime.ReadMemStats(&ms1)
	m.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	m.gcCycles = ms1.NumGC - ms0.NumGC
	if heapAfter > 0 {
		m.gcCycles-- // the forced collection
	}
	return m
}

// heapLiveMiB is the heap the last garbage collection found live: the
// memory the program retains, without the garbage a peak or resident
// figure would add depending on when collection happened to run.
func heapLiveMiB() float64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// endToEnd fills the end-to-end metrics of an untraced phase. Times
// are process CPU time (user plus system), which excludes the time the
// hypervisor takes the virtual CPUs away; see README.md.
func (m measured) endToEnd(out metrics) {
	n := float64(m.ops)
	out["cpu_ms_per_op"] = metric{float64(m.cpu.Nanoseconds()) / 1e6 / n, "ms"}
	out["op_cpu_p50_ms"] = metric{percentile(m.opCPU, 50), "ms"}
	out["op_cpu_p90_ms"] = metric{percentile(m.opCPU, 90), "ms"}
	out["alloc_mb_per_op"] = metric{float64(m.allocBytes) / (1 << 20) / n, "MiB"}
	out["heap_live_mb"] = metric{m.heapLive, "MiB"}
}

// wallSummary renders the phase's wall-clock throughput and latency.
func (m measured) wallSummary() string {
	return fmt.Sprintf("ops_per_s %.4g, op_p50_ms %.4g, op_p90_ms %.4g",
		float64(m.ops)/m.wall.Seconds(), percentile(m.lat, 50), percentile(m.lat, 90))
}

func (r *result) add(m measured) {
	r.Attempted += m.ops
	r.Failed += m.failed
	if m.failed > 0 {
		r.Correct = false
	}
	for _, err := range m.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
	fmt.Printf("phase: %d ops in %.3f s, %d failed, %d GC cycles (op p50/p90 over %d samples)\n",
		m.ops, m.wall.Seconds(), m.failed, m.gcCycles, len(m.lat))
}

// fail marks the run incorrect for a failure outside any single op.
func (r *result) fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	r.Correct = false
	r.Failed++
	r.Attempted++
}

// report prints every metric by name with its unit, then the JSON
// result line.
func (r *result) report() {
	errorRate := float64(r.Failed) / float64(max(r.Attempted, 1))
	fmt.Printf("error_rate: %d failed of %d attempted = %g\n", r.Failed, r.Attempted, errorRate)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for n, v := range r.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			r.Metrics[n] = metric{0, v.Unit}
		}
	}
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain floats, strings and ints always marshal
	}
	fmt.Println(string(line))
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// cpuTime is the process's user plus system CPU time, summed over its
// threads, read from CLOCK_PROCESS_CPUTIME_ID: nanosecond resolution,
// where getrusage rounds to microseconds (a cache hit takes about 40).
func cpuTime() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// printEnv records the environment the numbers were taken in.
func printEnv(name string, seed uint64, seconds float64, traced bool) {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v\n", name, seed, seconds, traced)
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu)
}
