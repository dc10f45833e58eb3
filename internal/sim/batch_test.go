package sim_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"emissary/internal/pipeline"
	"emissary/internal/sim"
)

// TestBatchMemberFailure pins Batch.Run's per-member contract: a
// member with an exhausted cycle budget fails with the same StallError
// a cold run produces, the other members complete byte-identical
// results, and every nil slot is populated in place.
func TestBatchMemberFailure(t *testing.T) {
	opts := []sim.Options{
		lockstepOptions(t, "tomcat", "TPLRU", 1),
		lockstepOptions(t, "tomcat", "SRRIP", 2),
		lockstepOptions(t, "tomcat", "GHRP", 3),
	}
	opts[1].MaxCycles = 1_000 // trips mid-warm-up

	b := sim.NewBatch()
	slots := make([]*sim.Warm, len(opts))
	outs := b.Run(context.Background(), opts, slots)
	for i, slot := range slots {
		if slot == nil {
			t.Errorf("member %d's nil slot was not populated", i)
		}
	}
	var stall *pipeline.StallError
	if !errors.As(outs[1].Err, &stall) {
		t.Fatalf("budgeted member returned %v, want StallError", outs[1].Err)
	}
	_, _, coldErr := sim.RunContextStats(context.Background(), opts[1])
	if !reflect.DeepEqual(outs[1].Err, coldErr) {
		t.Errorf("batched failure %#v differs from cold %#v", outs[1].Err, coldErr)
	}
	for _, i := range []int{0, 2} {
		coldRes, coldStats, err := sim.RunContextStats(context.Background(), opts[i])
		if err != nil {
			t.Fatal(err)
		}
		if outs[i].Err != nil {
			t.Fatalf("surviving member %d failed: %v", i, outs[i].Err)
		}
		if !reflect.DeepEqual(outs[i].Result, coldRes) || outs[i].Stats != coldStats {
			t.Errorf("surviving member %d diverged from cold", i)
		}
	}
}

// TestBatchKeyOf pins the grouping predicate: trace replays and empty
// measurement windows never batch; knob-only differences share a key;
// workload/seed/horizon differences split.
func TestBatchKeyOf(t *testing.T) {
	base := lockstepOptions(t, "tomcat", "TPLRU", 1)
	key, ok := sim.BatchKeyOf(base)
	if !ok {
		t.Fatal("synthetic job not batchable")
	}
	knob := base
	knob.Seed = 77
	knob.IdealL2I = true
	knob.Policy = lockstepOptions(t, "tomcat", "GHRP", 1).Policy
	if k2, ok := sim.BatchKeyOf(knob); !ok || k2 != key {
		t.Error("knob-only variant did not share the stream key")
	}
	replay := base
	replay.TracePath = "x.trace"
	if _, ok := sim.BatchKeyOf(replay); ok {
		t.Error("trace replay claimed batchable")
	}
	horizon := base
	horizon.MeasureInstrs++
	if k2, _ := sim.BatchKeyOf(horizon); k2 == key {
		t.Error("different horizon shared the stream key")
	}
	reseed := base
	reseed.Benchmark.Seed++
	if k2, _ := sim.BatchKeyOf(reseed); k2 == key {
		t.Error("different workload seed shared the stream key")
	}
}
