package syncctl

import (
	"testing"

	"streampca/internal/obs"
	"streampca/internal/stream"
)

func TestProcessRecordsSyncInstruments(t *testing.T) {
	set := obs.NewSet()
	c := &Controller{N: 4, Strategy: Ring, Inst: set.Sync()}
	c.MarkFailed(2)
	emitted := 0
	emit := func(int, stream.Message) { emitted++ }
	for i := 0; i < 5; i++ {
		c.Process(0, nil, emit)
	}
	inst := set.Sync()
	if got := inst.Rounds.Load(); got != 5 {
		t.Errorf("rounds = %d, want 5", got)
	}
	if inst.LastPlanNs() == 0 {
		t.Error("staleness timestamp never set")
	}
	evs := set.Journal().Events(0)
	if len(evs) != 5 {
		t.Fatalf("journal has %d events, want 5 sync-plan entries", len(evs))
	}
	// Each sync-plan event carries its round's commands (A) and excluded
	// failed peers (B).
	var cmds float64
	for i, ev := range evs {
		if ev.Kind != obs.EvSyncPlan || ev.N != int64(i) || ev.B != 1 {
			t.Errorf("event %d = %+v, want sync-plan round %d excluding 1 peer", i, ev, i)
		}
		cmds += ev.A
	}
	if cmds != float64(emitted) {
		t.Errorf("sync-plan events carry %g commands, emitted %d", cmds, emitted)
	}
}

func TestProcessWithoutInstIsSafe(t *testing.T) {
	c := &Controller{N: 3}
	c.Process(0, nil, func(int, stream.Message) {})
	if c.Rounds() != 1 {
		t.Fatal("round did not advance")
	}
}
