package workload

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"epiphany/internal/system"
)

// Job pairs a workload with per-job options (appended after the
// Runner's base options, so a job can override the batch defaults).
type Job struct {
	Workload Workload
	Options  []Option
}

// JobResult reports one job of a batch.
type JobResult struct {
	// Name is the workload's name (empty only if the job had no
	// workload).
	Name string
	// Result is nil when Err is set.
	Result Result
	Err    error
}

// BatchResult aggregates a batch; Results is index-aligned with the
// submitted jobs regardless of completion order.
type BatchResult struct {
	Results []JobResult
}

// Failed returns the jobs that did not produce a result.
func (b *BatchResult) Failed() []JobResult {
	var failed []JobResult
	for _, jr := range b.Results {
		if jr.Err != nil {
			failed = append(failed, jr)
		}
	}
	return failed
}

// Err summarises the batch: nil when every job succeeded, otherwise the
// first failure annotated with the failure count.
func (b *BatchResult) Err() error {
	failed := b.Failed()
	if len(failed) == 0 {
		return nil
	}
	return fmt.Errorf("epiphany: %d of %d jobs failed, first %q: %w",
		len(failed), len(b.Results), failed[0].Name, failed[0].Err)
}

// Runner executes batches of workloads concurrently. Every job gets its
// own pristine System - built fresh, or recycled from one of the
// worker's recent jobs through System.Reset when the topology matches
// (a System is single-use between resets; sharing a live one across
// jobs would blend virtual clocks and statistics). Either way each
// simulation stays bit-deterministic: a batch produces byte-identical
// Metrics to running the same jobs sequentially, in any interleaving,
// on fresh boards.
type Runner struct {
	// Workers caps the number of concurrent simulations; <= 0 means
	// GOMAXPROCS.
	Workers int
	// Options are applied to every job, before the job's own options.
	Options []Option

	// idle recycles boards across RunJob calls, so a long-lived caller
	// (the epiphany-serve daemon) gets the same board-pooling win
	// RunBatch gives its batch workers. Guarded by idleMu; RunBatch does
	// not touch it (its pools are per-worker and unsynchronized).
	idleMu sync.Mutex
	idle   []*sysPool
}

// RunBatch executes jobs across the worker pool and returns the
// aggregated results in submission order. Errors - validation failures,
// run errors, panics out of a workload - are captured per job, never
// aborting the rest of the batch. Cancelling ctx stops feeding new jobs
// (simulations already in flight run to completion); jobs that never
// started report ctx's error. The returned error is ctx's error, if
// any - per-job failures are reported in the BatchResult only.
func (r *Runner) RunBatch(ctx context.Context, jobs []Job) (*BatchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	br := &BatchResult{Results: make([]JobResult, len(jobs))}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var pool sysPool
			for i := range idx {
				br.Results[i] = r.runJob(ctx, jobs[i], &pool)
			}
		}()
	}
	next := 0
feed:
	for ; next < len(jobs); next++ {
		select {
		case idx <- next:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	for ; next < len(jobs); next++ {
		if jobs[next].Workload != nil {
			br.Results[next].Name = safeName(jobs[next].Workload)
		}
		br.Results[next].Err = ctx.Err()
	}
	return br, ctx.Err()
}

// safeName reports w.Name(), or the empty string when Name itself
// panics - a job that never ran must not abort the batch while being
// labelled for its result.
func safeName(w Workload) (name string) {
	defer func() { _ = recover() }()
	return w.Name()
}

// RunJob executes one job outside a batch. Unlike a one-job RunBatch,
// consecutive calls recycle simulated boards through a shared idle
// pool (each concurrent call checks out its own pool, so RunJob is
// safe for concurrent use and two in-flight jobs never share a
// System): a long-lived daemon submitting jobs one at a time keeps the
// construction-amortizing behaviour of a batch. The result is
// bit-identical to Run or RunBatch on the same job - recycled boards
// are certified pristine by System.Reset before reuse.
func (r *Runner) RunJob(ctx context.Context, job Job) JobResult {
	if ctx == nil {
		ctx = context.Background()
	}
	pool := r.checkout()
	jr := r.runJob(ctx, job, pool)
	r.checkin(pool)
	return jr
}

// checkout takes an idle board pool for one RunJob, or a fresh empty
// one when all are busy (or none exist yet).
func (r *Runner) checkout() *sysPool {
	r.idleMu.Lock()
	defer r.idleMu.Unlock()
	if n := len(r.idle); n > 0 {
		p := r.idle[n-1]
		r.idle[n-1] = nil
		r.idle = r.idle[:n-1]
		return p
	}
	return new(sysPool)
}

// checkin returns a pool after its job, keeping at most one idle pool
// per worker slot - beyond that the boards would only hold memory.
func (r *Runner) checkin(p *sysPool) {
	limit := r.Workers
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	r.idleMu.Lock()
	defer r.idleMu.Unlock()
	if len(r.idle) < limit {
		r.idle = append(r.idle, p)
	}
}

// RunWorkloads is RunBatch over bare workloads with no per-job options.
func (r *Runner) RunWorkloads(ctx context.Context, ws ...Workload) (*BatchResult, error) {
	jobs := make([]Job, len(ws))
	for i, w := range ws {
		jobs[i] = Job{Workload: w}
	}
	return r.RunBatch(ctx, jobs)
}

// poolCores bounds the boards one worker's pool keeps: together with
// the board in use, at most this many cores (36 MiB of scratchpad), or
// the one board in use if it alone is larger.
const poolCores = 1024

// sysPool recycles a worker goroutine's recently used Systems, most
// recent first. get hands out a cached board when the requested
// topology matches one; put takes a board back only after System.Reset
// has certified it pristine, so a pooled System is always
// indistinguishable from a fresh one. Keeping more than the last board
// lets a worker that alternates between a few small topologies (a
// daemon serving e16, e64 and cluster-2x2 jobs) stop rebuilding them;
// poolCores caps what that may hold. Pools are per-worker and therefore
// unsynchronized. The match is whole-Topology equality, so every
// experiment-axis identity pools separately: the C2C timing overrides
// and the power model / DVFS point ride in the Topology value.
type sysPool struct {
	boards []pooledBoard
}

type pooledBoard struct {
	topo system.Topology
	sys  *system.System
}

func (p *sysPool) get(topo system.Topology) *system.System {
	for i, b := range p.boards {
		if b.topo == topo {
			p.boards = slices.Delete(p.boards, i, i+1)
			return b.sys
		}
	}
	// Evict the least recently used boards before building, so the
	// pool and the new board never hold more than poolCores together.
	cores := topo.NumCores()
	for i, b := range p.boards {
		if cores += b.topo.NumCores(); cores > poolCores {
			p.boards = slices.Delete(p.boards, i, len(p.boards))
			break
		}
	}
	return system.NewTopology(topo)
}

func (p *sysPool) put(topo system.Topology, sys *system.System) {
	if sys.Reset() == nil {
		p.boards = slices.Insert(p.boards, 0, pooledBoard{topo, sys})
	}
}

// runJob executes one job on a pristine System from the worker's pool,
// converting panics (for example from a malformed Initial field) into
// per-job errors. A System a panic escaped from is never pooled.
func (r *Runner) runJob(ctx context.Context, job Job, pool *sysPool) (jr JobResult) {
	defer func() {
		if p := recover(); p != nil {
			jr.Result = nil
			jr.Err = fmt.Errorf("epiphany: workload %q panicked: %v", jr.Name, p)
		}
	}()
	if job.Workload == nil {
		jr.Err = fmt.Errorf("epiphany: job has no workload")
		return jr
	}
	jr.Name = job.Workload.Name()
	opts := make([]Option, 0, len(r.Options)+len(job.Options))
	opts = append(opts, r.Options...)
	opts = append(opts, job.Options...)
	w, rc, err := prepare(job.Workload, opts)
	if err != nil {
		jr.Err = err
		return jr
	}
	if err := ctx.Err(); err != nil {
		jr.Err = err
		return jr
	}
	sys := pool.get(rc.topo)
	jr.Result, jr.Err = runOn(ctx, w, sys, &rc)
	// Reset certifies the board is recyclable even after a run error
	// (a deadlocked or stopped board fails certification and is
	// dropped).
	pool.put(rc.topo, sys)
	return jr
}
