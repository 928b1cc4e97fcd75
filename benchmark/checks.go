package main

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/infer"
	"parallelspikesim/internal/learn"
	"parallelspikesim/internal/netio"
	"parallelspikesim/internal/network"
)

// spikeZ is how many standard deviations the total input spike count of a
// run may stray from its expectation. Every input spike is an independent
// Bernoulli draw with p = rate·dt, so the variance is at most the mean and
// sqrt(expected) bounds the standard deviation.
const spikeZ = 5

// samePredictions reports the first image whose prediction differs between
// two forward implementations, comparing class, winner, spike total and
// the per-class vote tally.
func samePredictions(got, want []infer.Prediction) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d predictions, recomputed %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Class != w.Class || g.Winner != w.Winner || g.Spikes != w.Spikes || len(g.Votes) != len(w.Votes) {
			return fmt.Errorf("image %d: got class %d winner %d spikes %d, recomputed class %d winner %d spikes %d",
				i, g.Class, g.Winner, g.Spikes, w.Class, w.Winner, w.Spikes)
		}
		for c := range g.Votes {
			if g.Votes[c] != w.Votes[c] {
				return fmt.Errorf("image %d: class %d has %d votes, recomputed %d", i, c, g.Votes[c], w.Votes[c])
			}
		}
	}
	return nil
}

// recompute classifies imgs one at a time with network.Present (learning
// off) on networks restored from snap, as a forward pass separate from
// infer.Engine's. The images were sent to PredictBatch in consecutive
// batches of batch images, and PredictBatch presents the j-th image of a
// batch at start step j·steps, so image i is presented at
// (i mod batch)·steps. The images are split over `workers` goroutines,
// each with its own network; the presentations are returned beside the
// predictions.
func recompute(snap *netio.Snapshot, cfg network.Config, ctl encode.Control, classes, workers, batch int, imgs [][]uint8) ([]infer.Prediction, []network.PresentResult, error) {
	steps := uint64(ctl.TLearnMS / cfg.DTms)
	preds := make([]infer.Prediction, len(imgs))
	results := make([]network.PresentResult, len(imgs))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			net, err := network.New(cfg)
			if err == nil {
				err = snap.Restore(net)
			}
			for i := w; i < len(imgs) && err == nil; i += workers {
				start := uint64(i%batch) * steps
				net.SetClock(start, float64(start)*cfg.DTms)
				var res network.PresentResult
				if res, err = net.Present(imgs[i], ctl, false, nil); err != nil {
					break
				}
				winner, _ := res.Winner()
				results[i] = res
				preds[i] = infer.Prediction{
					Class:  learn.Vote(res.SpikeCounts, snap.Assignments, classes),
					Winner: winner,
					Spikes: res.TotalSpikes(),
					Votes:  learn.VoteCounts(res.SpikeCounts, snap.Assignments, classes),
				}
			}
			errs[w] = err
		}(w)
	}
	wg.Wait()
	return preds, results, errors.Join(errs...)
}

// conductancesValid checks that every conductance lies in [gmin, gmax]
// and, when levels > 0, on the grid k/levels (Q1.7: levels = 128).
func conductancesValid(g []float64, gmin, gmax float64, levels int) error {
	for i, x := range g {
		if !(x >= gmin && x <= gmax) {
			return fmt.Errorf("conductance %d is %v, outside [%v, %v]", i, x, gmin, gmax)
		}
		if levels > 0 {
			if k := x * float64(levels); k != math.Round(k) {
				return fmt.Errorf("conductance %d is %v, off the 1/%d grid", i, x, levels)
			}
		}
	}
	return nil
}

// spikesPlausible checks an observed input spike total against the sum of
// the encoder's expected counts.
func spikesPlausible(observed uint64, expected float64) error {
	if expected <= 0 {
		return fmt.Errorf("expected spike count %v", expected)
	}
	z := (float64(observed) - expected) / math.Sqrt(expected)
	if math.Abs(z) > spikeZ {
		return fmt.Errorf("%d input spikes, expected %.0f (z = %.1f, bound %d)", observed, expected, z, spikeZ)
	}
	return nil
}

// expectedSpikes is the encoder's expected input spike count for one
// presentation of img under ctl.
func expectedSpikes(img []uint8, ctl encode.Control, kind encode.TrainKind) (float64, error) {
	src, err := encode.NewSource(img, ctl.Band, kind, 0, 0)
	if err != nil {
		return 0, err
	}
	return src.ExpectedSpikes(ctl.TLearnMS), nil
}

// sameCRC checks a replayed snapshot's payload digest against the one an
// audit recorded.
func sameCRC(replayed, audited uint32) error {
	if replayed != audited {
		return fmt.Errorf("replayed payload CRC %#08x, audit says %#08x", replayed, audited)
	}
	return nil
}
