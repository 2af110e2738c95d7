package obs

import (
	"sync"
	"testing"
)

func TestJournalAppendAndOrder(t *testing.T) {
	j := NewJournal(8)
	for i := 0; i < 5; i++ {
		j.Append(Event{Kind: EvSyncSend, Engine: i, N: int64(i)})
	}
	if j.Len() != 5 || j.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d, want 5/0", j.Len(), j.Dropped())
	}
	evs := j.Events(0)
	for i, ev := range evs {
		if ev.Seq != int64(i) || ev.Engine != i {
			t.Fatalf("event %d out of order: %+v", i, ev)
		}
		if ev.TimeNs == 0 {
			t.Fatal("Append did not stamp TimeNs")
		}
	}
}

func TestJournalWrapsAndCountsDrops(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Append(Event{Kind: EvSyncSkip, N: int64(i)})
	}
	if j.Len() != 4 {
		t.Fatalf("len = %d, want 4", j.Len())
	}
	if j.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", j.Dropped())
	}
	evs := j.Events(0)
	for i, ev := range evs {
		if want := int64(6 + i); ev.N != want || ev.Seq != want {
			t.Fatalf("event %d = %+v, want N=Seq=%d", i, ev, want)
		}
	}
}

func TestJournalEventsMax(t *testing.T) {
	j := NewJournal(16)
	for i := 0; i < 10; i++ {
		j.Append(Event{Kind: EvSyncMerge, N: int64(i)})
	}
	evs := j.Events(3)
	if len(evs) != 3 {
		t.Fatalf("len = %d, want 3", len(evs))
	}
	for i, ev := range evs {
		if want := int64(7 + i); ev.N != want {
			t.Fatalf("event %d N = %d, want %d", i, ev.N, want)
		}
	}
	// max after wrap
	for i := 10; i < 40; i++ {
		j.Append(Event{Kind: EvSyncMerge, N: int64(i)})
	}
	evs = j.Events(5)
	if len(evs) != 5 {
		t.Fatalf("post-wrap len = %d, want 5", len(evs))
	}
	for i, ev := range evs {
		if want := int64(35 + i); ev.N != want {
			t.Fatalf("post-wrap event %d N = %d, want %d", i, ev.N, want)
		}
	}
}

func TestJournalConcurrentAppend(t *testing.T) {
	j := NewJournal(128)
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				j.Append(Event{Kind: EvCheckpointWrite})
			}
		}()
	}
	wg.Wait()
	if j.Len() != 128 {
		t.Fatalf("len = %d, want 128", j.Len())
	}
	if got := j.Dropped(); got != workers*per-128 {
		t.Fatalf("dropped = %d, want %d", got, workers*per-128)
	}
	evs := j.Events(0)
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("seq gap: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{
		EvSyncPlan, EvSyncSend, EvSyncSkip, EvSyncMerge, EvNodeFailure,
		EvNodeRevive, EvCheckpointWrite, EvCheckpointRestore,
		EvEngineInit, EvScaleRescue, EvCrash, EvRecover,
		EvWireConnect, EvWireDown, EvWireEOS,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "unknown" || s == "" {
			t.Errorf("kind %d has no name", k)
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if EventKind(200).String() != "unknown" {
		t.Error("out-of-range kind should be unknown")
	}
}
