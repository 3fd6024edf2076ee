package sim

import (
	"fmt"
	"strings"
)

// ShardStats is one shard's scheduler counters for a run. The counting
// is unconditional (each counter is one increment on a path that
// already does real work), so a snapshot is always available; the
// parallel-scheduler counters (parks, holds) stay zero on sequential
// runs, where the machinery they count never arms.
//
// All counts except the two wall times in EngineStats are deterministic
// for a fixed (shards, workers>1) configuration: the barrier-round
// structure depends only on the published frontiers and bounds, never
// on how shards are mapped to host workers.
type ShardStats struct {
	// Shard is the shard index; Label its diagnostic name ("sys",
	// "chip0", ...).
	Shard int    `json:"shard"`
	Label string `json:"label"`
	// Events is how many events this shard dispatched.
	Events uint64 `json:"events"`
	// ProcSwitches counts the proc coroutine resumptions among them:
	// proc starts plus wake-ups of live procs (a wake-up that finds its
	// proc already finished is an event but no switch).
	ProcSwitches uint64 `json:"proc_switches"`
	// HeapPeak is the high-water mark of the shard's event heap.
	HeapPeak int `json:"heap_peak"`
	// CrossPosts counts cross-shard events this shard sent (Send,
	// SendTagged, SendBooking, cross-shard spawns); TaggedPosts the
	// subset carrying a core arbitration tag (SendTagged - contended
	// shared-resource requests).
	CrossPosts  uint64 `json:"cross_posts"`
	TaggedPosts uint64 `json:"tagged_posts"`
	// BookingParks counts AwaitBookingWindow parking a proc because its
	// booking key was not yet below the booking floor (each retry round
	// counts once).
	BookingParks uint64 `json:"booking_parks"`
	// HeldByBound and HeldByFloor count phase-B rounds this shard ended
	// with a runnable event held back: by the (lookahead-lifted)
	// execution bound, or - for AtBooking/SendBooking events - by the
	// key-precise booking floor.
	HeldByBound uint64 `json:"held_by_bound"`
	HeldByFloor uint64 `json:"held_by_floor"`
}

// EngineStats is a snapshot of the engine's scheduler counters after a
// run: the per-shard counts plus the parallel scheduler's round
// structure and phase wall-clock times. Collected by Engine.Stats.
//
// PhaseAWallNS/PhaseBWallNS are host wall-clock measurements and vary
// run to run; every other field is deterministic for a fixed (shards,
// workers>1) configuration.
type EngineStats struct {
	// Shards and Workers describe the run's execution layout; Lookahead
	// is the chip-to-chip window the parallel scheduler lifted frontiers
	// by.
	Shards    int  `json:"shards"`
	Workers   int  `json:"workers"`
	Lookahead Time `json:"lookahead"`
	// Events is the total executed events; SysEvents the sys shard's
	// (shard 0's) part and SysShare its fraction - the direct measure of
	// how much of the board serializes through the host/eLink/DRAM
	// shard.
	Events    uint64  `json:"events"`
	SysEvents uint64  `json:"sys_events"`
	SysShare  float64 `json:"sys_share"`
	// ProcSwitches is the per-shard proc coroutine resumptions summed
	// (see ShardStats).
	ProcSwitches uint64 `json:"proc_switches"`
	// CrossPosts/TaggedPosts/BookingParks/HeldByBound/HeldByFloor are
	// the per-shard counters summed (see ShardStats).
	CrossPosts   uint64 `json:"cross_posts"`
	TaggedPosts  uint64 `json:"tagged_posts"`
	BookingParks uint64 `json:"booking_parks"`
	HeldByBound  uint64 `json:"held_by_bound"`
	HeldByFloor  uint64 `json:"held_by_floor"`
	// BarrierRounds counts the parallel scheduler's barrier-window
	// rounds; PhaseAWallNS/PhaseBWallNS the host wall time its two
	// phases cost the coordinator. All zero for sequential runs
	// (workers = 1 or a single shard).
	BarrierRounds uint64 `json:"barrier_rounds"`
	PhaseAWallNS  int64  `json:"phase_a_wall_ns"`
	PhaseBWallNS  int64  `json:"phase_b_wall_ns"`
	// PerShard is the per-shard breakdown, indexed by shard id.
	PerShard []ShardStats `json:"per_shard,omitempty"`
}

// shardLabel is the diagnostic shard name used by stats and deadlock
// reports alike.
func shardLabel(id int32) string {
	if id == 0 {
		return "sys"
	}
	return fmt.Sprintf("chip%d", id-1)
}

// Stats snapshots the engine's scheduler counters. Counters accumulate
// across RunUntil calls and clear on Reset; take the snapshot before
// recycling the board.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{
		Shards:        len(e.shards),
		Workers:       e.workers,
		Lookahead:     e.lookahead,
		BarrierRounds: e.rounds,
		PhaseAWallNS:  e.phaseANS,
		PhaseBWallNS:  e.phaseBNS,
		PerShard:      make([]ShardStats, len(e.shards)),
	}
	for i, s := range e.shards {
		ss := ShardStats{
			Shard:        i,
			Label:        shardLabel(s.id),
			Events:       s.nEvents,
			ProcSwitches: s.procSwitches,
			HeapPeak:     s.heapPeak,
			CrossPosts:   s.crossPosts,
			TaggedPosts:  s.taggedPosts,
			BookingParks: s.bookingParks,
			HeldByBound:  s.heldByBound,
			HeldByFloor:  s.heldByFloor,
		}
		st.PerShard[i] = ss
		st.Events += ss.Events
		st.ProcSwitches += ss.ProcSwitches
		st.CrossPosts += ss.CrossPosts
		st.TaggedPosts += ss.TaggedPosts
		st.BookingParks += ss.BookingParks
		st.HeldByBound += ss.HeldByBound
		st.HeldByFloor += ss.HeldByFloor
	}
	st.SysEvents = e.shards[0].nEvents
	if st.Events > 0 {
		st.SysShare = float64(st.SysEvents) / float64(st.Events)
	}
	return st
}

// SetRoundHook installs fn to be called by the parallel scheduler after
// every barrier round, with the round index, the round's minimum
// frontier time and the maximum shard time it reached. fn runs on the
// coordinator goroutine strictly between rounds (no shard is executing)
// and must not touch engine state. nil uninstalls. Sequential runs
// never call it.
func (e *Engine) SetRoundHook(fn func(round uint64, start, end Time)) { e.roundHook = fn }

// String renders the snapshot as the epiphany-bench -engine-stats
// report.
func (st EngineStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine: %d shard(s) x %d worker(s), %d events (sys share %.1f%%), %d proc switches, lookahead %v\n",
		st.Shards, st.Workers, st.Events, 100*st.SysShare, st.ProcSwitches, st.Lookahead)
	if st.BarrierRounds > 0 {
		fmt.Fprintf(&b, "  parallel: %d barrier rounds, phaseA %.3fms, phaseB %.3fms wall\n",
			st.BarrierRounds, float64(st.PhaseAWallNS)/1e6, float64(st.PhaseBWallNS)/1e6)
	}
	fmt.Fprintf(&b, "  cross-shard posts %d (tagged %d), booking parks %d, held by bound %d / floor %d\n",
		st.CrossPosts, st.TaggedPosts, st.BookingParks, st.HeldByBound, st.HeldByFloor)
	fmt.Fprintf(&b, "  %-6s %10s %10s %10s %12s %8s %8s %8s %8s\n",
		"shard", "events", "switches", "heap-peak", "cross-posts", "tagged", "parks", "bound", "floor")
	for _, ss := range st.PerShard {
		fmt.Fprintf(&b, "  %-6s %10d %10d %10d %12d %8d %8d %8d %8d\n",
			ss.Label, ss.Events, ss.ProcSwitches, ss.HeapPeak, ss.CrossPosts, ss.TaggedPosts,
			ss.BookingParks, ss.HeldByBound, ss.HeldByFloor)
	}
	return b.String()
}
