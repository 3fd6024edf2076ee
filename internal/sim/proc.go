package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

type procState uint8

const (
	stateNew procState = iota
	stateRunning
	stateWaiting // in the event heap with a scheduled resume
	stateBlocked // waiting on a Cond, not in the heap
	stateDone
)

// Proc is a simulated process. Its function runs as a coroutine
// (iter.Pull): the owning shard resumes it by calling next from inside
// an event dispatch, and the proc hands control straight back by calling
// yield, so a context switch never goes through the Go scheduler. At
// most one of a shard's Procs executes at a time, inside that shard's
// execution context, so Procs may freely touch their shard's simulation
// state without synchronization. State owned by other shards must be
// reached through Shard.Send.
type Proc struct {
	sh        *Shard
	id        int
	name      string
	now       Time
	next      func() (struct{}, bool) // resumes the coroutine; shard-side
	yield     func(struct{}) bool     // suspends the coroutine; proc-side
	fn        func(*Proc)
	state     procState
	blockedOn *Cond // the Cond being waited on (deadlock diagnostics)
	done      *Cond // completion condition, owned by shard 0
	// doneSys mirrors "the proc finished" into shard 0's timeline: it
	// is set by a shard-0 event at the completion time, so host-side
	// code (the only cross-shard reader) observes completion exactly
	// when the done Cond broadcasts. On a single-shard engine it is
	// set inline, identical to the classic engine.
	doneSys bool
}

// Engine returns the engine this Proc belongs to.
func (p *Proc) Engine() *Engine { return p.sh.eng }

// Shard returns the shard this Proc runs on.
func (p *Proc) Shard() *Shard { return p.sh }

// Name returns the name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// ID returns the Proc's spawn index within its shard.
func (p *Proc) ID() int { return p.id }

// Now returns the Proc's current virtual time.
func (p *Proc) Now() Time { return p.now }

// start creates the Proc's coroutine and runs it up to its first yield
// (or to completion). Shard-side only. The coroutine's stop function is
// never called: stopping would make yield return inside proc code that
// ignores its result and would run on outside any dispatch, so a proc
// left parked when a run ends early (Stop, a failure) simply stays
// suspended. The recover/done defer runs inside the coroutine, so a
// panicking proc records the failure and finishes normally instead of
// unwinding through the shard's next call.
func (p *Proc) start() {
	p.state = stateRunning
	p.now = p.sh.now
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				p.sh.eng.fail(fmt.Errorf("sim: proc %q panicked at t=%v: %v\n%s",
					p.name, p.now, r, debug.Stack()))
			}
			p.state = stateDone
			sys := p.sh.eng.shards[0]
			if p.sh == sys {
				p.doneSys = true
				p.done.Broadcast()
			} else {
				pp := p
				p.sh.Send(sys, p.now, func() {
					pp.doneSys = true
					pp.done.Broadcast()
				})
			}
		}()
		p.fn(p)
	})
	p.next()
}

// Wait advances the Proc's clock by d, letting other events at earlier
// times run first. Wait(0) yields the processor while keeping time fixed
// (events already queued at the same time run before the Proc resumes).
func (p *Proc) Wait(d Time) { p.WaitUntil(p.now + d) }

// WaitCycles advances the Proc's clock by n core clock cycles.
func (p *Proc) WaitCycles(n uint64) { p.Wait(Cycles(n)) }

// WaitUntil advances the Proc's clock to absolute time t (no-op if t is
// not in the future, other than yielding).
func (p *Proc) WaitUntil(t Time) {
	if t < p.now {
		t = p.now
	}
	p.state = stateWaiting
	p.sh.schedule(p.sh.newEvent(t, evResume, p, nil))
	p.yield(struct{}{})
}

// Block parks the Proc with no scheduled wake-up; something must later call
// unblock (via Cond signalling). c's name appears in deadlock reports.
func (p *Proc) block(c *Cond) {
	p.state = stateBlocked
	p.blockedOn = c
	p.sh.blocked++
	p.yield(struct{}{})
}

// unblock schedules the Proc to resume at time t. Shard/Cond-side only.
func (p *Proc) unblock(t Time) {
	if p.state != stateBlocked {
		return
	}
	if t < p.sh.now {
		t = p.sh.now
	}
	p.state = stateWaiting
	p.blockedOn = nil
	p.sh.blocked--
	p.sh.schedule(p.sh.newEvent(t, evResume, p, nil))
}

// Done returns a Cond broadcast when the Proc's function returns. Other
// Procs can WaitCond on it to join. The Cond is owned by shard 0, where
// joining (host-side) code runs.
func (p *Proc) Done() *Cond { return p.done }

// Finished reports whether the Proc's function has returned, as
// observed from shard 0's timeline (the only place cross-shard code
// asks; on a single-shard engine this is simply "the function
// returned").
func (p *Proc) Finished() bool { return p.doneSys }

// Join blocks p until other has finished.
func (p *Proc) Join(other *Proc) {
	for !other.Finished() {
		p.WaitCond(other.Done())
	}
}
