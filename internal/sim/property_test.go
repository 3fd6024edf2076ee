package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

// Property: events fire in nondecreasing time order regardless of the
// order they were scheduled in.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		if len(delays) > 200 {
			delays = delays[:200]
		}
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			d := Time(d)
			e.At(d, func() { fired = append(fired, e.Now()) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		if len(fired) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a proc's clock never goes backwards, whatever it waits on.
func TestProcClockMonotoneProperty(t *testing.T) {
	f := func(waits []uint8) bool {
		e := NewEngine()
		ok := true
		c := NewCond(e, "tick")
		// The ticker broadcasts well past any time the subject can reach
		// (11 waits of <= 255 plus 4 cond waits of <= 1000 each), so a
		// WaitCond below always has a future broadcast to catch.
		e.Spawn("ticker", func(p *Proc) {
			for i := 0; i < 20; i++ {
				p.Wait(1000)
				c.Broadcast()
			}
		})
		e.Spawn("subject", func(p *Proc) {
			last := p.Now()
			for i, w := range waits {
				if i > 10 {
					break
				}
				if w%2 == 0 {
					p.Wait(Time(w))
				} else if i < 4 {
					p.WaitCond(c)
				}
				if p.Now() < last {
					ok = false
				}
				last = p.Now()
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Resource never double-books - consecutive grants on one
// resource have non-overlapping intervals, and begin >= request time.
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(reqs []struct{ At, Dur uint16 }) bool {
		r := NewResource("x")
		type iv struct{ b, e Time }
		var got []iv
		for _, q := range reqs {
			if q.Dur == 0 {
				continue
			}
			b, e := r.Use(Time(q.At), Time(q.Dur))
			if b < Time(q.At) || e != b+Time(q.Dur) {
				return false
			}
			got = append(got, iv{b, e})
		}
		sort.Slice(got, func(i, j int) bool { return got[i].b < got[j].b })
		for i := 1; i < len(got); i++ {
			if got[i].b < got[i-1].e {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Broadcast before any waiter exists must not wake later waiters
// (condition variables are not latches).
func TestCondIsNotALatch(t *testing.T) {
	e := NewEngine()
	c := NewCond(e, "edge")
	e.Spawn("early", func(p *Proc) {
		c.Broadcast() // nobody is waiting
	})
	woke := false
	e.Spawn("late", func(p *Proc) {
		p.Wait(10)
		done := NewCond(e, "timeout")
		e.At(100, func() { done.Broadcast() })
		// Race the never-signalled cond against a timeout using a helper proc.
		e.Spawn("waiter", func(q *Proc) {
			q.WaitCond(c)
			woke = true
		})
		p.WaitCond(done)
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke {
		t.Fatal("waiter woke from a broadcast that happened before it waited")
	}
}

// engineTrace runs a pseudo-random mix of procs, timer callbacks and
// resource contention derived from seed and returns the full event
// trace (proc id, virtual time) in execution order.
func engineTrace(seed uint64) []Time {
	rng := NewRand(seed)
	e := NewEngine()
	res := []*Resource{NewResource("a"), NewResource("b"), NewResource("c")}
	var trace []Time
	record := func(id int) { trace = append(trace, Time(id)<<32|e.Now()) }
	nProcs := 4 + rng.Intn(12)
	for p := 0; p < nProcs; p++ {
		p := p
		steps := 1 + rng.Intn(6)
		waits := make([]Time, steps)
		uses := make([]int, steps)
		durs := make([]Time, steps)
		for i := 0; i < steps; i++ {
			waits[i] = Time(rng.Intn(50))
			uses[i] = rng.Intn(len(res))
			durs[i] = Time(1 + rng.Intn(20))
		}
		e.SpawnAt(Time(rng.Intn(30)), "p", func(pr *Proc) {
			for i := 0; i < steps; i++ {
				pr.Wait(waits[i])
				_, end := res[uses[i]].Use(pr.Now(), durs[i])
				pr.WaitUntil(end)
				record(p)
			}
		})
	}
	nTimers := rng.Intn(10)
	for i := 0; i < nTimers; i++ {
		id := 100 + i
		e.At(Time(rng.Intn(200)), func() { record(id) })
	}
	if err := e.Run(); err != nil {
		panic(err)
	}
	return trace
}

// FuzzEngineOrderingDeterminism: same seed + same spawn order => an
// identical event trace, the property every multi-chip simulation rests
// on. The corpus seeds run under plain `go test`.
func FuzzEngineOrderingDeterminism(f *testing.F) {
	for _, s := range []uint64{0, 1, 3, 1234, 1 << 33} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		a, b := engineTrace(seed), engineTrace(seed)
		if len(a) != len(b) {
			t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("event %d differs: %#x vs %#x", i, a[i], b[i])
			}
		}
	})
}

func TestEngineManyProcsDeterministicTrace(t *testing.T) {
	run := func() []int {
		e := NewEngine()
		var order []int
		for i := 0; i < 32; i++ {
			i := i
			e.Spawn("p", func(p *Proc) {
				p.Wait(Time(100 - i)) // reverse-sorted wake order
				order = append(order, i)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("trace differs between runs")
		}
		if a[i] != 31-i {
			t.Fatalf("wake order wrong at %d: %v", i, a[:i+1])
		}
	}
}

// TestEventHeapPopsInKeyOrder: the typed event heap always pops the
// least pending key. Random keys - mixed times, the untagged and
// booking-retry tags, core tags, several shard ids each with its own
// sequence - are pushed with pops interleaved, and every pop must be
// the head of the pending set sorted by key.less.
func TestEventHeapPopsInKeyOrder(t *testing.T) {
	tags := []int32{untagged, bookingRetryTag, 0, 1, 7, 63}
	for seed := uint64(1); seed <= 50; seed++ {
		r := NewRand(seed)
		var h eventHeap
		var pending []*event
		seqs := make([]uint64, 4)
		pop := func() {
			sort.Slice(pending, func(i, j int) bool { return pending[i].key().less(pending[j].key()) })
			got, want := h.pop(), pending[0]
			pending = pending[1:]
			if got != want {
				t.Fatalf("seed %d: popped %+v, want %+v", seed, got.key(), want.key())
			}
		}
		for i := 0; i < 400; i++ {
			sid := r.Intn(len(seqs))
			ev := &event{t: Time(r.Intn(16)), tag: tags[r.Intn(len(tags))], sid: int32(sid), seq: seqs[sid]}
			seqs[sid]++
			h.push(ev)
			pending = append(pending, ev)
			if r.Intn(3) == 0 {
				pop()
			}
		}
		for len(pending) > 0 {
			pop()
		}
		if len(h) != 0 {
			t.Fatalf("seed %d: heap holds %d events after draining", seed, len(h))
		}
	}
}
