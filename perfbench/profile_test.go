package main

import "testing"

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "epiphany/internal/mem.NewDRAM", "epiphany/internal/system.NewTopology"}, "board"},
		{[]string{"runtime.futex", "runtime.chanrecv", "runtime.chanrecv1", "epiphany/internal/sim.(*Proc).Wait"}, "runtime.sched"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"encoding/json.Marshal", "epiphany/internal/serve.writeJSON"}, "serve"},
		{[]string{"main.main"}, "other"},
	} {
		if got := classify(tc.frames); got != tc.want {
			t.Errorf("classify(%v) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}
