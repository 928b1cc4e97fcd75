package main

import (
	"path/filepath"
	"testing"
	"time"

	"parallelspikesim/internal/continual"
	"parallelspikesim/internal/fixed"
	"parallelspikesim/internal/infer"
)

// smallServed trains a 20-neuron float32 baseline network and serves it
// the way the training workloads do, returning the served model, its
// pipeline and held-out images.
func smallServed(t *testing.T) (*served, [][]uint8, *pipeline) {
	t.Helper()
	w := baseF32
	w.workers, w.heldOut = 1, 12
	p, _, err := w.setUp(3, 30, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.close)
	for i := 0; i < p.train.Len(); i++ {
		if _, err := p.tr.TrainImage(p.train.Images[i], p.train.Labels[i]); err != nil {
			t.Fatal(err)
		}
	}
	sv, err := p.serve(filepath.Join(t.TempDir(), "small.pss"), p.test.Images[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	return sv, p.test.Images, p
}

func TestRecomputeMatchesEngineAndCatchesAFlip(t *testing.T) {
	sv, imgs, p := smallServed(t)
	snap, eng := sv.snap, sv.eng
	// Two PredictBatch calls of six images: each restarts at step 0.
	got, err := eng.PredictBatch(imgs[:6])
	if err != nil {
		t.Fatal(err)
	}
	rest, err := eng.PredictBatch(imgs[6:])
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, rest...)
	want, _, err := recompute(snap, p.cfg, p.ctl, numClasses, 2, 6, imgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := samePredictions(got, want); err != nil {
		t.Fatalf("two forward implementations disagree: %v", err)
	}
	flipped := append([]infer.Prediction(nil), got...)
	flipped[5].Class = (flipped[5].Class + 1) % numClasses
	if samePredictions(flipped, want) == nil {
		t.Error("one flipped prediction passed the check")
	}
	votes := append([]infer.Prediction(nil), got...)
	votes[2].Votes = append([]int(nil), votes[2].Votes...)
	votes[2].Votes[0]++
	if samePredictions(votes, want) == nil {
		t.Error("one changed vote tally passed the check")
	}
}

func TestConductanceCheckCatchesOffGridQ17(t *testing.T) {
	levels := int(1 / fixed.Q1p7.Step())
	if levels != 128 {
		t.Fatalf("Q1.7 step gives %d levels", levels)
	}
	g := []float64{0, 1.0 / 128, 0.5, 127.0 / 128, 1}
	if err := conductancesValid(g, 0, 1, levels); err != nil {
		t.Fatalf("on-grid codes rejected: %v", err)
	}
	off := append([]float64(nil), g...)
	off[2] = 0.5 + 1.0/256 // half a code off the grid
	if conductancesValid(off, 0, 1, levels) == nil {
		t.Error("an off-grid Q1.7 code passed the check")
	}
	if conductancesValid(off, 0, 1, 0) != nil {
		t.Error("float32 conductances must not be held to a grid")
	}
	if conductancesValid([]float64{1 + 1.0/128}, 0, 1, levels) == nil {
		t.Error("a conductance above GMax passed the check")
	}
}

func TestReplayCheckCatchesWrongCRC(t *testing.T) {
	sv, _, _ := smallServed(t)
	snap := sv.snap
	crc := snap.PayloadCRC()
	if err := sameCRC(snap.PayloadCRC(), crc); err != nil {
		t.Fatal(err)
	}
	snap.G[7] += 1.0 / 1024 // one conductance differs from what the audit saw
	if sameCRC(snap.PayloadCRC(), crc) == nil {
		t.Error("a wrong payload CRC passed the check")
	}
}

func TestSpikeCheck(t *testing.T) {
	if err := spikesPlausible(10_050, 10_000); err != nil {
		t.Errorf("half a standard deviation rejected: %v", err)
	}
	if spikesPlausible(10_600, 10_000) == nil || spikesPlausible(9_400, 10_000) == nil {
		t.Error("six standard deviations accepted")
	}
}

func TestLearnToServe(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	learnDone := []time.Duration{ms(10), ms(20), ms(30), ms(40)}
	classify := []*request{{done: ms(25)}, {done: ms(35)}, {done: ms(60)}, {done: ms(90)}}
	gens := []uint64{1, 1, 2, 3}
	audits := []continual.Audit{
		{Examples: 2, Gen: 2, Outcome: continual.OutcomePromoted},
		{Examples: 4, Gen: 3, Outcome: continual.OutcomePromoted},
		{Examples: 3, Gen: 9, Outcome: continual.OutcomeGated},
	}
	got := learnToServe(audits, learnDone, classify, gens)
	want := []float64{0.040, 0.050} // 60−20 ms, 90−40 ms
	if len(got) != len(want) {
		t.Fatalf("learnToServe = %v, want %v", got, want)
	}
	for i := range want {
		if d := got[i] - want[i]; d > 1e-9 || d < -1e-9 {
			t.Errorf("promotion %d: %v s, want %v s", i, got[i], want[i])
		}
	}
}
