package chaos

import (
	"context"
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestRandomSoakIsPureFunctionOfSeed: the generated schedule is
// byte-identical across calls with the same seed and differs across
// seeds.
func TestRandomSoakIsPureFunctionOfSeed(t *testing.T) {
	opts := SoakOptions{
		Kills: 12,
		Every: 250 * time.Millisecond,
		Kinds: []ActionKind{KillWorker, KillManager, KillFrontEnd, PartitionCaches, LossBurst, HangWorker, SlowWorker},
	}
	a := RandomSoak(42, opts)
	b := RandomSoak(42, opts)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%+v\n%+v", a, b)
	}
	c := RandomSoak(43, opts)
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestScheduleTimelineReproducible is the reproducibility contract:
// executing one schedule twice, on two fresh systems built from the
// same seed, yields the identical fault timeline (the acceptance
// criterion's run-twice-and-diff assertion), and both runs converge
// back to steady state.
func TestScheduleTimelineReproducible(t *testing.T) {
	sched := Schedule{Seed: 5, Events: []Event{
		{At: 50 * time.Millisecond, Kind: KillWorker, Slot: 1},
		{At: 150 * time.Millisecond, Kind: LossBurst, Dur: 80 * time.Millisecond, P2P: 0.3, Mcast: 0.5},
		{At: 300 * time.Millisecond, Kind: SlowWorker, Slot: 0, Dur: 100 * time.Millisecond, Delay: 2 * time.Millisecond},
		{At: 450 * time.Millisecond, Kind: KillFrontEnd, Slot: 0},
		{At: 650 * time.Millisecond, Kind: PartitionCaches, Dur: 100 * time.Millisecond},
		{At: 900 * time.Millisecond, Kind: KillManager},
	}}

	run := func() []string {
		h, err := New(Config{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		defer h.Stop()
		h.Execute(context.Background(), sched)
		if !h.AwaitSteady(15 * time.Second) {
			t.Fatalf("run did not return to steady state:\n%s", h.Timeline())
		}
		return h.FaultTimeline()
	}

	first := run()
	second := run()
	if len(first) != len(sched.Events) {
		t.Fatalf("run injected %d of %d events", len(first), len(sched.Events))
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("fault timelines differ between runs of the same schedule:\nrun1: %v\nrun2: %v", first, second)
	}
}

// TestScheduleDeathsReproducible: a seeded fault schedule run twice on
// fresh systems built from the same seed yields the identical fault
// timeline and the same set of process deaths, every live message
// crosses the SAN through the codec without a serialization error, and
// both runs converge back to steady state.
func TestScheduleDeathsReproducible(t *testing.T) {
	sched := Schedule{Seed: 7, Events: []Event{
		{At: 40 * time.Millisecond, Kind: KillWorker, Slot: 0},
		{At: 120 * time.Millisecond, Kind: LossBurst, Dur: 60 * time.Millisecond, P2P: 0.2, Mcast: 0.4},
		{At: 220 * time.Millisecond, Kind: PartitionCaches, Dur: 80 * time.Millisecond},
		{At: 380 * time.Millisecond, Kind: KillFrontEnd, Slot: 0},
	}}

	type outcome struct {
		faults []string
		exits  []string
	}
	run := func() outcome {
		h, err := New(Config{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		defer h.Stop()
		h.Execute(context.Background(), sched)
		if !h.AwaitSteady(15 * time.Second) {
			t.Fatalf("run did not return to steady state:\n%v", h.Timeline())
		}
		st := h.Net().Stats()
		if st.WireEncodes == 0 || st.WireDecodes == 0 {
			t.Fatalf("run never exercised the codec: %+v", st)
		}
		if st.WireErrors != 0 {
			t.Fatalf("codec rejected %d live messages (missing body layout?)", st.WireErrors)
		}
		var out outcome
		out.faults = h.FaultTimeline()
		for _, e := range h.Timeline() {
			if e.Kind == "exit" {
				out.exits = append(out.exits, e.Name)
			}
		}
		sort.Strings(out.exits)
		return out
	}

	first := run()
	second := run()
	if !reflect.DeepEqual(first.faults, second.faults) {
		t.Fatalf("fault timelines differ:\nrun1: %v\nrun2: %v", first.faults, second.faults)
	}
	if !reflect.DeepEqual(first.exits, second.exits) {
		t.Fatalf("process deaths differ:\nrun1: %v\nrun2: %v", first.exits, second.exits)
	}
}
