package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// The reference sweep: train_images_per_s of the float32 baseline over
// layer sizes and executor widths, to locate the sequential-vs-pool
// crossover. It is not a workload and has no bound.
var (
	sweepNeurons = []int{100, 400, 1000, 4000}
	sweepWorkers = []int{1, 2}
)

const (
	sweepImages  = 60 // training images per cell
	sweepRepeats = 3  // passes per cell; the median is reported
)

type sweepCell struct {
	Neurons      int     `json:"neurons"`
	Workers      int     `json:"workers"`
	ImagesPerSec float64 `json:"train_images_per_s"`
}

func runSweep(seed uint64) error {
	var cells []sweepCell
	fmt.Printf("%8s %8s %20s\n", "neurons", "workers", "train_images_per_s")
	for _, n := range sweepNeurons {
		for _, wk := range sweepWorkers {
			w := baseF32
			w.workers = wk
			var rates []float64
			for rep := 0; rep < sweepRepeats; rep++ {
				p, _, err := w.setUp(seed, sweepImages, n, nil)
				if err != nil {
					return err
				}
				t := time.Now()
				for i := 0; i < sweepImages; i++ {
					if _, err := p.tr.TrainImage(p.train.Images[i], p.train.Labels[i]); err != nil {
						p.close()
						return err
					}
				}
				rates = append(rates, sweepImages/time.Since(t).Seconds())
				p.close()
			}
			c := sweepCell{Neurons: n, Workers: wk, ImagesPerSec: median(rates)}
			cells = append(cells, c)
			fmt.Printf("%8d %8d %20.1f\n", c.Neurons, c.Workers, c.ImagesPerSec)
		}
	}
	return json.NewEncoder(os.Stdout).Encode(map[string]any{"sweep": cells, "host": fingerprint(), "seed": seed})
}
