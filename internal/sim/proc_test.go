package sim

import "testing"

// TestProcSwitchAllocFree pins the event free list and the coroutine
// switch: once warm, a proc waking from Wait and two procs playing
// ping-pong over a pair of Conds allocate nothing per step.
func TestProcSwitchAllocFree(t *testing.T) {
	// steps drives e in RunUntil slices of period, so each call runs
	// the same steady-state cycle of events.
	steps := func(t *testing.T, e *Engine, period Time) func() {
		limit := Time(0)
		return func() {
			if err := e.RunUntil(limit); err != nil {
				t.Fatal(err)
			}
			limit += period
		}
	}
	t.Run("wait", func(t *testing.T) {
		e := NewEngine()
		done := false
		e.Spawn("ticker", func(p *Proc) {
			for !done {
				p.Wait(1)
			}
		})
		if n := testing.AllocsPerRun(100, steps(t, e, 1)); n != 0 {
			t.Errorf("Wait loop allocates %v per step, want 0", n)
		}
		done = true
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("cond", func(t *testing.T) {
		e := NewEngine()
		ping, pong := NewCond(e, "ping"), NewCond(e, "pong")
		done := false
		e.Spawn("a", func(p *Proc) {
			for !done {
				p.Wait(1)
				ping.Broadcast()
				p.WaitCond(pong)
			}
		})
		e.Spawn("b", func(p *Proc) {
			for !done {
				p.WaitCond(ping)
				p.Wait(1)
				pong.Broadcast()
			}
		})
		if n := testing.AllocsPerRun(100, steps(t, e, 2)); n != 0 {
			t.Errorf("Cond ping-pong allocates %v per step, want 0", n)
		}
		done = true
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if st := e.Stats(); st.ProcSwitches < 4*100 {
			t.Errorf("ping-pong made %d proc switches, want at least 400", st.ProcSwitches)
		}
	})
}

// BenchmarkProcSwitch measures one proc context switch: a Wait that
// schedules the proc's wake-up and yields to its shard, which pops the
// event and resumes the proc.
func BenchmarkProcSwitch(b *testing.B) {
	e := NewEngine()
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
