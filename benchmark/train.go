package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"parallelspikesim/internal/dataset"
	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/engine"
	"parallelspikesim/internal/fixed"
	"parallelspikesim/internal/infer"
	"parallelspikesim/internal/learn"
	"parallelspikesim/internal/netio"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/obs"
	"parallelspikesim/internal/synapse"
)

// trainWorkload is one training pipeline, set up the way pssim sets it up:
// the Table I preset, learn.DefaultOptions, and the executor pssim's
// -workers flag selects.
type trainWorkload struct {
	preset  synapse.Preset
	rule    synapse.RuleKind
	format  string // precision override ("" keeps the preset's)
	workers int    // engine.New argument: engine.Auto is pssim's default

	trainPerSec float64 // training images per second of --seconds
	heldOut     int     // held-out images, split evenly over the rounds
}

// baseF32 is the paper's deterministic baseline: float32, 1–22 Hz, 500 ms
// per image, adaptive boost, default pool executor.
var baseF32 = trainWorkload{
	preset: synapse.PresetFloat, rule: synapse.Deterministic, workers: engine.Auto,
	trainPerSec: 12, heldOut: 1000,
}

// fastQ17 is `pssim -preset highfreq -format q1.7 -workers 1`: stochastic
// short-term STDP, 5–78 Hz, 100 ms per image, packed Q1.7 conductances.
var fastQ17 = trainWorkload{
	preset: synapse.PresetHighFreq, rule: synapse.Stochastic, format: "q1.7", workers: 1,
	trainPerSec: 100, heldOut: 1000,
}

const (
	numClasses   = 10
	programSeed  = 7   // pssim's -seed default; the workload seed only draws the data
	setupRepeats = 9   // set-ups per run; setup_s is their median
	rounds       = 10  // train → serve → infer rounds per run; rates and learn_to_serve_s are medians over them
	planImages   = 100 // images timed through PlanPresentation in the traced run
)

// config compiles the workload into the network configuration and encode
// control pssim would build.
func (w trainWorkload) config(pixels, neurons int) (network.Config, encode.Control, error) {
	syn, band, err := synapse.PresetConfig(w.preset, w.rule)
	if err != nil {
		return network.Config{}, encode.Control{}, err
	}
	if w.format != "" {
		if syn.Format, err = fixed.ParseFormat(w.format); err != nil {
			return network.Config{}, encode.Control{}, err
		}
	}
	syn.Seed = programSeed
	ctl := learn.DefaultOptions().Control
	ctl.Band = encode.Band{MinHz: band.MinHz, MaxHz: band.MaxHz}
	if w.preset == synapse.PresetHighFreq {
		ctl = encode.HighFrequencyControl()
	}
	return network.DefaultConfig(pixels, neurons, syn), ctl, nil
}

// pipeline is one set-up training pipeline.
type pipeline struct {
	cfg   network.Config
	ctl   encode.Control
	exec  engine.Executor
	net   *network.Network
	tr    *learn.Trainer
	train *dataset.Dataset
	test  *dataset.Dataset
}

func (p *pipeline) close() { p.exec.Close() }

// setUp generates the run's data and builds the executor, network and
// trainer. reg, when non-nil, instruments the executor and network.
func (w trainWorkload) setUp(seed uint64, nTrain, neurons int, reg *obs.Registry) (*pipeline, time.Duration, error) {
	t0 := time.Now()
	train := dataset.SynthDigits(nTrain, seed)
	test := dataset.SynthDigits(w.heldOut, seed+1000)
	synth := time.Since(t0)
	cfg, ctl, err := w.config(train.Pixels(), neurons)
	if err != nil {
		return nil, 0, err
	}
	exec := engine.New(w.workers)
	engine.Instrument(exec, reg)
	net, err := network.New(cfg, network.WithExecutor(exec), network.WithObserver(reg))
	if err != nil {
		exec.Close()
		return nil, 0, err
	}
	opts := learn.DefaultOptions()
	opts.Control = ctl
	opts.NumClasses = train.NumClasses
	tr, err := learn.New(net, opts)
	if err != nil {
		exec.Close()
		return nil, 0, err
	}
	return &pipeline{cfg: cfg, ctl: ctl, exec: exec, net: net, tr: tr, train: train, test: test}, synth, nil
}

// trainStats accumulates what the checks need from training.
type trainStats struct {
	images    int
	expected  float64 // encoder-expected input spikes over every presentation
	inputBase uint64  // net.TotalInputSpikes before training
	overSteps int     // presentations with more excitatory spikes than steps
	perImage  []float64
	wall      time.Duration
}

// trainOne presents image i and folds its presentation into st.
func (p *pipeline) trainOne(i int, st *trainStats) error {
	boosts := p.tr.BoostCount
	t := time.Now()
	res, err := p.tr.TrainImage(p.train.Images[i], p.train.Labels[i])
	d := time.Since(t)
	if err != nil {
		return err
	}
	st.wall += d
	st.perImage = append(st.perImage, float64(d)/1e6)
	st.images++
	if res.TotalSpikes() > res.Steps {
		st.overSteps++
	}
	// The image was shown once at the base band and once more per boost,
	// each boost widening the band by BoostFactor.
	ctl := p.ctl
	for k := 0; k <= p.tr.BoostCount-boosts; k++ {
		e, err := expectedSpikes(p.train.Images[i], ctl, p.cfg.TrainKind)
		if err != nil {
			return err
		}
		st.expected += e
		ctl.Band.MinHz *= p.tr.Opts.BoostFactor
		ctl.Band.MaxHz *= p.tr.Opts.BoostFactor
	}
	return nil
}

// checkTraining runs the training output checks.
func (p *pipeline) checkTraining(r *run, st *trainStats, want int) {
	r.check("training images equal the count requested", func() error {
		if st.images != want || p.tr.ImagesSeen != want {
			return fmt.Errorf("trained %d (trainer saw %d), requested %d", st.images, p.tr.ImagesSeen, want)
		}
		return nil
	}())
	r.check("boosts at most MaxBoosts per image", func() error {
		if max := p.tr.Opts.MaxBoosts * want; p.tr.BoostCount > max {
			return fmt.Errorf("%d boosts for %d images, limit %d", p.tr.BoostCount, want, max)
		}
		return nil
	}())
	r.check("no training presentation has more excitatory spikes than steps", func() error {
		if st.overSteps > 0 {
			return fmt.Errorf("%d presentations over the limit", st.overSteps)
		}
		return nil
	}())
	r.check("training input spikes match the encoder's expectation", spikesPlausible(p.net.TotalInputSpikes-st.inputBase, st.expected))
	levels := 0
	if f := p.cfg.Syn.Format; !f.Float {
		levels = int(1 / f.Step())
	}
	g := make([]float64, 0, p.net.Syn.Len())
	for _, x := range p.net.Syn.Weights() {
		g = append(g, float64(x))
	}
	r.check("conductances in [GMin, GMax] and on the format grid", conductancesValid(g, p.cfg.Syn.Det.GMin, p.cfg.Syn.GCeil(), levels))
}

// served is one pass of the tail from trained weights to a served
// prediction.
type served struct {
	snap              *netio.Snapshot // as loaded back for serving
	eng               *infer.Engine
	total, save, load time.Duration
	fileMB            float64
}

// serve freezes the trainer's current state the way the continual learner
// emits a candidate — conductances as trained, thresholds zeroed, labels
// voted from the training-time responses — writes it with netio.SaveFile,
// loads it back with netio.LoadInferenceFile, builds the engine pssim
// serves with, and classifies one image. The whole tail is timed.
func (p *pipeline) serve(path string, first []uint8, reg *obs.Registry) (*served, error) {
	t0 := time.Now()
	snap := netio.Capture(p.net, nil)
	for i := range snap.Theta {
		snap.Theta[i] = 0
	}
	snap.Assignments = p.tr.Assignments()
	if err := netio.SaveFile(path, snap); err != nil {
		return nil, err
	}
	t1 := time.Now()
	loaded, err := netio.LoadInferenceFile(path, numClasses)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	eng, err := infer.FromSnapshot(loaded, p.cfg, p.ctl, numClasses, infer.WithExecutor(p.exec), infer.WithObserver(reg))
	if err != nil {
		return nil, err
	}
	if _, err := eng.Classify(first); err != nil {
		return nil, err
	}
	s := &served{snap: loaded, eng: eng, total: time.Since(t0), save: t1.Sub(t0), load: t2.Sub(t1)}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	s.fileMB = float64(fi.Size()) / (1 << 20)
	return s, nil
}

// heldOutStats accumulates the held-out checks over the rounds.
type heldOutStats struct {
	mismatch  error // first PredictBatch/recompute disagreement
	spikesOff error // first round whose input spikes strayed from expectation
	overSteps int
	correct   int
	images    int
}

// check recomputes one round's PredictBatch output with network.Present
// and folds the presentations into the spike checks.
func (h *heldOutStats) check(p *pipeline, sv *served, imgs [][]uint8, labels []uint8, preds []infer.Prediction) error {
	want, results, err := recompute(sv.snap, p.cfg, p.ctl, numClasses, min(runtime.NumCPU(), 2), len(imgs), imgs)
	if err != nil {
		return fmt.Errorf("recomputing predictions: %w", err)
	}
	if err := samePredictions(preds, want); err != nil && h.mismatch == nil {
		h.mismatch = fmt.Errorf("round at held-out image %d: %w", h.images, err)
	}
	// Every PredictBatch call starts its images at steps 0, steps, 2·steps…,
	// so rounds reuse the same encoder draws: the spike check is made per
	// round, where the draws are independent.
	expected, spikes := 0.0, uint64(0)
	for i, res := range results {
		e, err := expectedSpikes(imgs[i], p.ctl, p.cfg.TrainKind)
		if err != nil {
			return err
		}
		expected += e
		spikes += uint64(res.InputSpikes)
		if res.TotalSpikes() > res.Steps {
			h.overSteps++
		}
		if preds[i].Class == int(labels[i]) {
			h.correct++
		}
	}
	if err := spikesPlausible(spikes, expected); err != nil && h.spikesOff == nil {
		h.spikesOff = fmt.Errorf("round at held-out image %d: %w", h.images, err)
	}
	h.images += len(imgs)
	return nil
}

// runTrain runs a training workload as rounds of the same operations:
// train a slice of the images, turn the weights into a served model
// (learn_to_serve_s), run PredictBatch over a slice of the held-out set
// (infer_images_per_s) and classify that slice one image at a time
// (classify latency). Every metric thus samples the whole run, and the
// rates are medians over the rounds.
func runTrain(r *run, w trainWorkload) error {
	nTrain := int(w.trainPerSec*float64(r.seconds)) / rounds * rounds
	if r.trace {
		nTrain = nTrain / 2 / rounds * rounds // the traced run trains every image twice
	}
	const neurons = 1000

	// Set-up, repeated: setup_s is the median, so one slow page-in or GC
	// does not decide it.
	setup := r.phase("setup")
	var p *pipeline
	var setups, synths []float64
	for i := 0; i < setupRepeats; i++ {
		if p != nil {
			p.close()
		}
		setup.Attempted++
		runtime.GC() // every set-up starts from the same heap state
		t := time.Now()
		var synth time.Duration
		var err error
		if p, synth, err = w.setUp(r.seed, nTrain, neurons, nil); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		synths = append(synths, float64(synth)/1e6)
	}
	defer func() { p.close() }()
	r.set("setup_s", median(setups))
	r.set("dataset.synth_ms", median(synths))

	// The traced run trains every image twice, on the untraced pipeline
	// and then on an identical one with obs attached, so both see the same
	// host speed; the traced twin is the one served.
	var reg *obs.Registry
	srv, st := p, &trainStats{inputBase: p.net.TotalInputSpikes}
	var q *pipeline
	var qt *trainStats
	var trainLayers scrape
	var utilSum float64
	if r.trace {
		reg = obs.NewRegistry()
		var err error
		if q, _, err = w.setUp(r.seed, nTrain, neurons, reg); err != nil {
			return err
		}
		defer q.close()
		srv, qt, trainLayers = q, &trainStats{inputBase: q.net.TotalInputSpikes}, scrape{}
	}
	util := reg.Gauge("engine_worker_utilization")

	trainPh, tailPh := r.phase("train"), r.phase("serve")
	batchPh, classifyPh := r.phase("predict-batch"), r.phase("classify")
	path := filepath.Join(r.workdir, "trained.pss")
	per, slice := nTrain/rounds, w.heldOut/rounds
	var tails, saves, loads, inferMs, lat []float64
	var fileMB float64
	held := &heldOutStats{}
	for k := 0; k < rounds; k++ {
		runtime.GC() // every round starts from the same heap state
		for i := k * per; i < (k+1)*per; i++ {
			trainPh.Attempted++
			if err := p.trainOne(i, st); err != nil {
				return fmt.Errorf("training image %d: %w", i, err)
			}
		}
		if q != nil {
			before, err := registryScrape(reg)
			if err != nil {
				return err
			}
			for i := k * per; i < (k+1)*per; i++ {
				trainPh.Attempted++
				if err := q.trainOne(i, qt); err != nil {
					return fmt.Errorf("traced training image %d: %w", i, err)
				}
				utilSum += util.Value()
			}
			after, err := registryScrape(reg)
			if err != nil {
				return err
			}
			trainLayers.add(after.delta(before)) // training only: inference dispatches on the same pool
		}

		tailPh.Attempted++
		imgs, labels := srv.test.Images[k*slice:(k+1)*slice], srv.test.Labels[k*slice:(k+1)*slice]
		sv, err := srv.serve(path, imgs[0], reg)
		if err != nil {
			tailPh.Failed++
			return fmt.Errorf("serving round %d: %w", k, err)
		}
		tails, saves, loads = append(tails, sv.total.Seconds()), append(saves, float64(sv.save)/1e6), append(loads, float64(sv.load)/1e6)
		fileMB = sv.fileMB

		batchPh.Attempted++
		t := time.Now()
		preds, err := sv.eng.PredictBatch(imgs)
		if err != nil {
			batchPh.Failed++
			return fmt.Errorf("PredictBatch: %w", err)
		}
		inferMs = append(inferMs, float64(time.Since(t))/1e6/float64(len(imgs)))

		// Classify latency is each call's on-CPU time: on a shared 2-vCPU
		// host other tenants preempt the thread for 3–40 ms about once a
		// second, which would otherwise decide p99 (README.md).
		runtime.LockOSThread()
		for _, img := range imgs {
			classifyPh.Attempted++
			c := threadCPU()
			if _, err := sv.eng.Classify(img); err != nil {
				runtime.UnlockOSThread()
				classifyPh.Failed++
				return fmt.Errorf("Classify: %w", err)
			}
			lat = append(lat, float64(threadCPU()-c)/1e6)
		}
		runtime.UnlockOSThread()

		if err := held.check(srv, sv, imgs, labels, preds); err != nil {
			return err
		}
	}

	r.set("train_images_per_s", chunkRate(st.perImage, per))
	r.set("learn_to_serve_s", median(tails))
	r.set("infer_images_per_s", chunkRate(inferMs, 1))
	r.set("classify_p50_ms", percentile(lat, 50))
	r.set("classify_p90_ms", percentile(lat, 90))
	for _, q := range []float64{95, 99, 99.5} {
		r.note(fmt.Sprintf("classify_p%g_ms", q), percentile(lat, q))
	}
	r.set("infer.image_ms.p50", percentile(lat, 50))
	r.set("learn.image_ms.p50", median(st.perImage)) // untraced timings
	r.set("netio.save_ms", median(saves))
	r.set("netio.load_ms", median(loads))
	r.set("netio.snapshot_mb", fileMB)
	r.set("learn.accuracy", float64(held.correct)/float64(held.images))
	r.note("train_boosts", float64(p.tr.BoostCount))
	r.note("train_input_spikes", float64(p.net.TotalInputSpikes-st.inputBase))
	r.note("train_images_per_s_whole_phase", float64(nTrain)/st.wall.Seconds())

	p.checkTraining(r, st, nTrain)
	r.check("PredictBatch on the reloaded snapshot equals network.Present one image at a time", held.mismatch)
	r.check("held-out input spikes match the encoder's expectation in every round", held.spikesOff)
	r.check("no held-out presentation has more excitatory spikes than steps", func() error {
		if held.overSteps > 0 {
			return fmt.Errorf("%d presentations over the limit", held.overSteps)
		}
		return nil
	}())

	if q != nil {
		q.checkTraining(r, qt, nTrain)
		r.check("obs leaves training results unchanged", func() error {
			a, b := netio.Capture(p.net, nil).PayloadCRC(), netio.Capture(q.net, nil).PayloadCRC()
			if a != b || p.tr.BoostCount != q.tr.BoostCount {
				return fmt.Errorf("untraced payload %#08x / %d boosts, traced %#08x / %d", a, p.tr.BoostCount, b, q.tr.BoostCount)
			}
			return nil
		}())
		r.set("obs.overhead", qt.wall.Seconds()/st.wall.Seconds())
		r.set("learn.boosts", float64(q.tr.BoostCount))
		r.set("learn.plan_hits", float64(q.tr.PlanHits))
		r.set("engine.utilization", utilSum/float64(nTrain))
		all, err := registryScrape(reg)
		if err != nil {
			return err
		}
		r.set("infer.forward_ms", all.meanMs("infer_forward_ns"))
		if err := layerMetrics(r, q, trainLayers, nTrain); err != nil {
			return err
		}
		r.note("traced_train_images_per_s", float64(nTrain)/qt.wall.Seconds())
		r.note("encode_build_us_per_image", trainLayers["network_phase_encode_build_ns_sum"]/1e3/float64(nTrain))
	}

	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)
	return nil
}

// layerMetrics turns the traced pipeline's training counters into
// per-image per-layer numbers and times PlanPresentation from outside.
func layerMetrics(r *run, q *pipeline, s scrape, images int) error {
	n := float64(images)
	us := func(timer string) float64 { return s[timer+"_sum"] / 1e3 / n }
	r.set("encode.lookup_us_per_image", us("network_phase_encode_ns"))
	r.set("network.integrate_us_per_image", us("network_phase_integrate_ns"))
	r.set("network.wta_us_per_image", us("network_phase_inhibit_ns"))
	r.set("synapse.plasticity_us_per_image", us("network_phase_plasticity_ns"))
	r.set("engine.chunk_us_per_image", us("engine_chunk_ns"))
	r.set("engine.dispatches_per_image", s["engine_for_calls_total"]/n)
	in := s["network_input_spikes_total"] / n
	r.set("network.input_spikes_per_image", in)
	r.set("network.exc_spikes_per_image", s["network_exc_spikes_total"]/n)
	r.set("synapse.updates_per_image", s["network_syn_updates_total"]/n)
	// Computed, not measured: every input spike reads one conductance row.
	rowBytes := float64(8 * q.net.Cfg.NumNeurons) // flat float64 weights
	if q.net.Syn.Packed() {
		rowBytes = float64(8 * len(q.net.Syn.RowCodes(0)))
	}
	r.set("synapse.accumulate_kb_per_image", in*rowBytes/1024)

	steps := uint64(q.ctl.TLearnMS / q.cfg.DTms)
	t := time.Now()
	for i := 0; i < planImages; i++ {
		if _, err := q.net.PlanPresentation(q.train.Images[i%q.train.Len()], q.ctl, uint64(i)*steps); err != nil {
			return err
		}
	}
	r.set("encode.plan_build_us", float64(time.Since(t))/1e3/planImages)
	return nil
}

// registryScrape renders an in-process registry through the same
// Prometheus text path psserve's /metrics uses, so both workloads read
// their counters with one parser.
func registryScrape(reg *obs.Registry) (scrape, error) {
	var buf bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return parseProm(&buf)
}
