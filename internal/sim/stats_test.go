package sim

import (
	"strings"
	"testing"
)

// TestStatsSequentialCounts: the always-on counters on the classic
// single-heap engine - events dispatched, heap peak - with the parallel
// machinery quiet.
func TestStatsSequentialCounts(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.At(Time(10*(i+1)), func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Shards != 1 || st.Workers != 1 {
		t.Errorf("layout %dx%d, want 1x1", st.Shards, st.Workers)
	}
	if st.Events != 5 || st.SysEvents != 5 {
		t.Errorf("events %d/%d, want 5/5", st.Events, st.SysEvents)
	}
	if st.SysShare != 1 {
		t.Errorf("SysShare = %v, want 1 (everything on the sys shard)", st.SysShare)
	}
	if st.PerShard[0].HeapPeak != 5 {
		t.Errorf("heap peak %d, want 5 (all scheduled up front)", st.PerShard[0].HeapPeak)
	}
	if st.BarrierRounds != 0 || st.CrossPosts != 0 || st.BookingParks != 0 {
		t.Errorf("sequential run armed parallel counters: %+v", st)
	}
}

// TestStatsProcSwitches: every proc start and every wake-up of a live
// proc counts one switch; callback events count none.
func TestStatsProcSwitches(t *testing.T) {
	e := NewEngine()
	c := NewCond(e, "go")
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Wait(10)
		}
		p.WaitCond(c)
	})
	e.At(100, c.Broadcast)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	// start + 3 Wait wake-ups + the Cond wake-up; the callback is the
	// sixth event.
	if st.ProcSwitches != 5 || st.PerShard[0].ProcSwitches != 5 || st.Events != 6 {
		t.Errorf("proc switches %d (shard 0: %d) over %d events, want 5 over 6",
			st.ProcSwitches, st.PerShard[0].ProcSwitches, st.Events)
	}
	if s := st.String(); !strings.Contains(s, "5 proc switches") {
		t.Errorf("report missing the switch count:\n%s", s)
	}
	if err := e.Reset(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.ProcSwitches != 0 {
		t.Errorf("reset kept %d proc switches", st.ProcSwitches)
	}
}

// TestStatsShardedCounters: cross-shard posts (plain and tagged) land
// in the sender's counters, events land in the executing shard's, and
// the parallel scheduler's round count is visible.
func TestStatsShardedCounters(t *testing.T) {
	e := newSharded(2, 2, 0)
	sys := e.Sys()
	e.Shard(1).At(5, func() { e.Shard(1).Send(sys, 10, func() {}) })
	e.Shard(2).At(5, func() { e.Shard(2).SendTagged(sys, 10, 3, func() {}) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Shards != 3 || st.Workers != 2 {
		t.Fatalf("layout %dx%d, want 3x2", st.Shards, st.Workers)
	}
	if st.Events != 4 { // two shard-local events + two posted arrivals on sys
		t.Errorf("events = %d, want 4", st.Events)
	}
	if st.CrossPosts != 2 || st.TaggedPosts != 1 {
		t.Errorf("cross posts %d (tagged %d), want 2 (1)", st.CrossPosts, st.TaggedPosts)
	}
	if st.PerShard[1].CrossPosts != 1 || st.PerShard[2].TaggedPosts != 1 {
		t.Errorf("posts not attributed to the sending shard: %+v", st.PerShard)
	}
	if st.SysEvents != 2 {
		t.Errorf("sys executed %d events, want the 2 posted arrivals", st.SysEvents)
	}
	if st.BarrierRounds == 0 {
		t.Error("parallel run reported zero barrier rounds")
	}
	if got := []string{st.PerShard[0].Label, st.PerShard[1].Label, st.PerShard[2].Label}; got[0] != "sys" || got[1] != "chip0" || got[2] != "chip1" {
		t.Errorf("shard labels %v", got)
	}
}

// TestStatsResetClears: a recycled engine starts its counters at zero.
func TestStatsResetClears(t *testing.T) {
	e := newSharded(2, 2, 0)
	e.Shard(1).At(5, func() { e.Shard(1).Send(e.Sys(), 10, func() {}) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Events == 0 {
		t.Fatal("no events before reset; test is vacuous")
	}
	e.Reset()
	st := e.Stats()
	if st.Events != 0 || st.CrossPosts != 0 || st.BarrierRounds != 0 || st.PhaseAWallNS != 0 {
		t.Errorf("reset kept counters: %+v", st)
	}
	if st.PerShard[0].HeapPeak != 0 {
		t.Errorf("reset kept heap peak %d", st.PerShard[0].HeapPeak)
	}
}

// TestRoundHookFiresPerRound: the hook runs once per barrier round with
// coherent bounds, and matches the round counter.
func TestRoundHookFiresPerRound(t *testing.T) {
	e := newSharded(2, 2, 0)
	var calls uint64
	var lastRound uint64
	e.SetRoundHook(func(round uint64, start, end Time) {
		if round != calls {
			t.Errorf("round %d delivered out of order (call %d)", round, calls)
		}
		if end < start {
			t.Errorf("round %d: end %v before start %v", round, end, start)
		}
		calls++
		lastRound = round
	})
	e.Shard(1).At(5, func() { e.Shard(1).Send(e.Sys(), 10, func() {}) })
	e.Shard(2).At(7, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if calls == 0 {
		t.Fatal("round hook never fired on a parallel run")
	}
	if calls != st.BarrierRounds || lastRound != st.BarrierRounds-1 {
		t.Errorf("hook fired %d times, last round %d; stats report %d rounds",
			calls, lastRound, st.BarrierRounds)
	}
}

// TestStatsStringReport: the rendered report carries the layout header
// and one table row per shard.
func TestStatsStringReport(t *testing.T) {
	e := newSharded(2, 2, 0)
	e.Shard(1).At(5, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	s := e.Stats().String()
	for _, want := range []string{
		"engine: 3 shard(s) x 2 worker(s)",
		"barrier rounds",
		"cross-shard posts",
		"sys", "chip0", "chip1",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}
