package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"parallelspikesim/internal/continual"
	"parallelspikesim/internal/dataset"
	"parallelspikesim/internal/encode"
	"parallelspikesim/internal/engine"
	"parallelspikesim/internal/infer"
	"parallelspikesim/internal/learn"
	"parallelspikesim/internal/netio"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/synapse"
)

// The served snapshot's recipe. It is fixed, not drawn from --seed, so
// every run serves the same model: `pssim -preset highfreq -rule
// stochastic -seed 7 -train 300 -label 100 -workers 1` trained in process.
const (
	snapSeed    = 7 // also psserve's -seed default, which keys its encoder
	snapTrain   = 300
	snapLabel   = 100
	serveModel  = "default"
	serveRepeat = 5 // psserve starts per run; setup_s is their median
)

// serve-learn traffic. Rates are per second; counts scale with --seconds.
const (
	windowShare   = 0.5   // share of --seconds spent in the open-loop window
	classifyRate  = 100.0 // single-image /classify requests per second
	learnRate     = 20.0  // labeled /learn examples per second
	statusRate    = 4.0   // GET learn-status polls per second (queue depth samples)
	learnEvery    = 32    // K: psserve -learn-every
	batchImages   = 32    // images per /classify request in the batch phase
	batchRounds   = 10    // batch-phase rounds
	backlogRounds = 4     // backlog rounds of 2K examples each
	reqTimeout    = 10 * time.Second
)

// serveControl compiles psserve's preset flags (-preset highfreq, rule
// stochastic, -seed 7) into the network configuration and encode control
// its engines and learner use.
func serveControl() (network.Config, encode.Control, error) {
	syn, _, err := synapse.PresetConfig(synapse.PresetHighFreq, synapse.Stochastic)
	if err != nil {
		return network.Config{}, encode.Control{}, err
	}
	syn.Seed = snapSeed
	return network.DefaultConfig(dataset.SynthWidth*dataset.SynthHeight, 1000, syn), encode.HighFrequencyControl(), nil
}

// trainSnapshot builds the served model by the fixed recipe and writes it
// to path.
func trainSnapshot(path string) (*netio.Snapshot, error) {
	cfg, ctl, err := serveControl()
	if err != nil {
		return nil, err
	}
	net, err := network.New(cfg, network.WithExecutor(engine.New(1)))
	if err != nil {
		return nil, err
	}
	opts := learn.DefaultOptions()
	opts.Control = ctl
	opts.NumClasses = numClasses
	tr, err := learn.New(net, opts)
	if err != nil {
		return nil, err
	}
	if err := tr.Train(dataset.SynthDigits(snapTrain, snapSeed), nil); err != nil {
		return nil, err
	}
	model, err := tr.Label(dataset.SynthDigits(snapLabel, snapSeed+1000))
	if err != nil {
		return nil, err
	}
	snap := netio.Capture(net, model)
	return snap, netio.SaveFile(path, snap)
}

// server is one running psserve process.
type server struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches psserve on the snapshot and returns once /healthz
// answers 200, with the time that took.
func startServer(bin, snapPath, learnDir, logPath string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin,
		"-addr", addr, "-load", snapPath, "-model", serveModel,
		"-preset", "highfreq", "-rule", "stochastic", "-seed", strconv.Itoa(snapSeed),
		"-learn", "-learn-dir", learnDir, "-learn-every", strconv.Itoa(learnEvery), "-learn-min-delta", "-1")
	cmd.Stdout, cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf}
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for deadline := t0.Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		resp, err := client.Get(s.base + "/healthz")
		if err != nil {
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return s, time.Since(t0), nil
		}
	}
	s.stop()
	return nil, 0, fmt.Errorf("psserve did not become healthy within 60 s (log: %s)", logPath)
}

// stop sends SIGTERM, waits for psserve to drain and exit, and kills it if
// it has not exited within 20 s.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
	s.log.Close()
}

// learnStatus is the part of GET /models/{name}/learn the benchmark reads.
type learnStatus struct {
	Status continual.Status  `json:"status"`
	Audits []continual.Audit `json:"audits"`
}

func (s *server) learnStatus() (*learnStatus, error) {
	resp, err := http.Get(s.base + "/models/" + serveModel + "/learn")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st learnStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// generation reads the served model's generation from /healthz.
func (s *server) generation() (uint64, error) {
	resp, err := http.Get(s.base + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var h struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, err
	}
	return h.Generation, nil
}

func (s *server) metrics() (scrape, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseProm(resp.Body)
}

// awaitAudits polls the learn status until the trainer has trained every
// example sent and recorded an audit for every K boundary they crossed.
func (s *server) awaitAudits(examples int) (*learnStatus, error) {
	want := examples / learnEvery
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		st, err := s.learnStatus()
		if err != nil {
			return nil, err
		}
		if st.Status.Trained >= examples && len(st.Audits) >= want {
			return st, nil
		}
	}
	return nil, fmt.Errorf("learner did not train %d examples within 60 s", examples)
}

type classifyResponse struct {
	Generation  uint64             `json:"generation"`
	Predictions []infer.Prediction `json:"predictions"`
}

// learnToServe computes, for each promoted audit, the time from the 202
// for the /learn request carrying the candidate's last example to the
// first /classify response tagged with the generation it published (or a
// later one). learnDone[k] is when the request carrying example k+1
// finished; classify must hold only successful, decoded responses.
func learnToServe(audits []continual.Audit, learnDone []time.Duration, classify []*request, gens []uint64) []float64 {
	var out []float64
	for _, a := range audits {
		if a.Outcome != continual.OutcomePromoted || a.Examples < 1 || a.Examples > len(learnDone) {
			continue
		}
		from := learnDone[a.Examples-1]
		first := time.Duration(-1)
		for i, q := range classify {
			if gens[i] >= a.Gen && q.done >= from && (first < 0 || q.done < first) {
				first = q.done
			}
		}
		if first >= 0 {
			out = append(out, (first - from).Seconds())
		}
	}
	return out
}

func runServe(r *run) error {
	conns := runtime.NumCPU()
	if conns > 2 {
		conns = 2
	}

	// Inputs drawn from --seed: the classify pool, the learn stream and
	// the backlog.
	window := time.Duration(windowShare * float64(r.seconds) * float64(time.Second))
	nClassify := int(classifyRate * window.Seconds())
	nLearn := int(learnRate*window.Seconds()) / learnEvery * learnEvery
	t := time.Now()
	pool := dataset.SynthDigits(nClassify, r.seed+2000) // every request a distinct image
	stream := dataset.SynthDigits(nLearn+backlogRounds*2*learnEvery, r.seed+3000)
	r.set("dataset.synth_ms", float64(time.Since(t))/1e6)

	snapPath := filepath.Join(r.workdir, serveModel+".pss")
	snapshot := r.phase("train-snapshot")
	snapshot.Attempted++
	snap, err := trainSnapshot(snapPath)
	if err != nil {
		snapshot.Failed++
		return fmt.Errorf("training the served snapshot: %w", err)
	}
	if err := timeNetio(r, snap); err != nil {
		return err
	}

	// Set-up: psserve start to first healthy /healthz, repeated.
	setup := r.phase("setup")
	var srv *server
	var setups []float64
	for i := 0; i < serveRepeat; i++ {
		if srv != nil {
			srv.stop()
		}
		setup.Attempted++
		s, d, err := startServer(r.psserve, snapPath, r.workdir, filepath.Join(r.workdir, fmt.Sprintf("psserve-%d.log", i)))
		if err != nil {
			setup.Failed++
			return err
		}
		srv, setups = s, append(setups, d.Seconds())
	}
	defer func() { srv.stop() }()
	r.set("setup_s", median(setups))

	// Everything the window sends, encoded up front.
	reqs := make([]*request, 0, nClassify+nLearn)
	for i := 0; i < nClassify; i++ {
		body, err := json.Marshal(map[string][][]int{"images": {pixels(pool.Images[i])}})
		if err != nil {
			return err
		}
		reqs = append(reqs, &request{route: "classify", method: http.MethodPost, path: "/classify", body: body,
			item: i, due: time.Duration(float64(i) / classifyRate * float64(time.Second)), conn: i % conns})
	}
	for i := 0; i < nLearn; i++ {
		body, err := json.Marshal(map[string]any{"image": pixels(stream.Images[i]), "label": stream.Labels[i]})
		if err != nil {
			return err
		}
		reqs = append(reqs, &request{route: "learn", method: http.MethodPost, path: "/models/" + serveModel + "/learn", body: body,
			due: time.Duration((float64(i) + 0.5) / learnRate * float64(time.Second)), conn: 0})
	}
	for i := 0; i < int(statusRate*window.Seconds()); i++ {
		reqs = append(reqs, &request{route: "learn-status", method: http.MethodGet, path: "/models/" + serveModel + "/learn",
			due: time.Duration((float64(i) + 0.25) / statusRate * float64(time.Second)), conn: conns - 1})
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].due < reqs[j].due })

	before, err := srv.metrics()
	if err != nil {
		return err
	}
	baseGen, err := srv.generation()
	if err != nil {
		return err
	}
	gen := newGenerator(srv.base, conns, reqTimeout)
	defer gen.close()
	gen.run(context.Background(), reqs)
	after, err := srv.metrics()
	if err != nil {
		return err
	}
	windowStatus, err := srv.awaitAudits(nLearn)
	if err != nil {
		return err
	}
	drained, err := srv.metrics()
	if err != nil {
		return err
	}
	openLoop := r.phase("open-loop")
	r.routes = tally(reqs)
	for _, s := range r.routes {
		openLoop.Attempted += s.Attempted
		openLoop.Failed += s.failed()
	}

	// Classify latency from due time; decoded responses for the checks.
	var classify []*request
	var gens []uint64
	var lat, late []float64
	var learnDone []time.Duration
	var depthMax float64
	for _, q := range reqs {
		late = append(late, q.lateMs())
		if !q.ok() {
			continue
		}
		switch q.route {
		case "classify":
			var cr classifyResponse
			if err := json.Unmarshal(q.resp, &cr); err != nil || len(cr.Predictions) != 1 {
				return fmt.Errorf("undecodable /classify response %q", q.resp)
			}
			classify, gens = append(classify, q), append(gens, cr.Generation)
			lat = append(lat, q.latencyMs())
		case "learn":
			learnDone = append(learnDone, q.done)
		case "learn-status":
			var st learnStatus
			if err := json.Unmarshal(q.resp, &st); err != nil {
				return fmt.Errorf("undecodable learn status %q", q.resp)
			}
			depthMax = max(depthMax, float64(st.Status.QueueDepth))
		}
	}
	r.set("classify_p50_ms", percentile(lat, 50))
	r.set("classify_p90_ms", percentile(lat, 90))
	for _, q := range []float64{95, 99, 99.5} {
		r.note(fmt.Sprintf("classify_p%g_ms", q), percentile(lat, q))
	}
	r.set("loadgen.late_ms.p99", percentile(late, 99))
	r.set("continual.queue_depth.max", depthMax)
	l2s := learnToServe(windowStatus.Audits, learnDone, classify, gens)
	if len(l2s) == 0 {
		return fmt.Errorf("no promotion was observed by /classify in the window")
	}
	r.set("learn_to_serve_s", median(l2s))
	r.check("classify samples enough for p99", func() error {
		if n := len(lat); n < 1000 || beyond(lat, percentile(lat, 99)) < 10 {
			return fmt.Errorf("%d samples, %d beyond p99", n, beyond(lat, percentile(lat, 99)))
		}
		return nil
	}())
	windowLayers(r, before, after, drained, windowStatus)

	// Batch throughput: rounds of one batch request per connection, sent
	// together; infer_images_per_s is the median round's rate.
	batchPhase := r.phase("classify-batch")
	var roundMs []float64
	for round := 0; round < batchRounds; round++ {
		var batch []*request
		for c := 0; c < conns; c++ {
			imgs := make([][]int, batchImages)
			for k := range imgs {
				imgs[k] = pixels(pool.Images[((round*conns+c)*batchImages+k)%pool.Len()])
			}
			body, err := json.Marshal(map[string][][]int{"images": imgs})
			if err != nil {
				return err
			}
			batch = append(batch, &request{route: "classify-batch", method: http.MethodPost, path: "/classify", body: body, conn: c})
		}
		gen.run(context.Background(), batch)
		var last time.Duration
		for _, q := range batch {
			batchPhase.Attempted++
			if !q.ok() {
				batchPhase.Failed++
			}
			last = max(last, q.done)
		}
		roundMs = append(roundMs, float64(last)/1e6/float64(conns*batchImages))
	}
	r.set("infer_images_per_s", chunkRate(roundMs, 1))

	// Backlog: rounds of 2K examples posted at once; train_images_per_s is
	// the median round's rate of examples trained, emits and promotions
	// included.
	backlogPhase := r.phase("learn-backlog")
	var final *learnStatus
	var backlogMs []float64
	sent := nLearn
	for round := 0; round < backlogRounds; round++ {
		var posts []*request
		for lo := sent; lo < sent+2*learnEvery; lo += learnEvery {
			var exs []map[string]any
			for i := lo; i < lo+learnEvery; i++ {
				exs = append(exs, map[string]any{"image": pixels(stream.Images[i]), "label": stream.Labels[i]})
			}
			body, err := json.Marshal(map[string]any{"examples": exs})
			if err != nil {
				return err
			}
			posts = append(posts, &request{route: "learn-batch", method: http.MethodPost, path: "/models/" + serveModel + "/learn", body: body})
		}
		t0 := time.Now()
		gen.run(context.Background(), posts)
		for _, q := range posts {
			backlogPhase.Attempted++
			if !q.ok() {
				backlogPhase.Failed++
			}
		}
		sent += 2 * learnEvery
		if final, err = srv.awaitAudits(sent); err != nil {
			return err
		}
		backlogMs = append(backlogMs, float64(time.Since(t0))/1e6/float64(2*learnEvery))
	}
	r.set("train_images_per_s", chunkRate(backlogMs, 1))

	rss, err := peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid))
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)
	return checkServe(r, snapPath, pool, classify, gens, baseGen, stream, final)
}

// timeNetio times SaveFile and LoadInferenceFile of the served snapshot
// from outside.
func timeNetio(r *run, snap *netio.Snapshot) error {
	path := filepath.Join(r.workdir, "netio-probe.pss")
	t := time.Now()
	if err := netio.SaveFile(path, snap); err != nil {
		return err
	}
	r.set("netio.save_ms", float64(time.Since(t))/1e6)
	t = time.Now()
	if _, err := netio.LoadInferenceFile(path, numClasses); err != nil {
		return err
	}
	r.set("netio.load_ms", float64(time.Since(t))/1e6)
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.set("netio.snapshot_mb", float64(fi.Size())/(1<<20))
	return os.Remove(path)
}

// windowLayers sets the per-layer numbers read from psserve over the
// open-loop window: request counters up to its end (after), learner and
// registry counters once the learner has drained the window's examples.
func windowLayers(r *run, before, after, drained scrape, st *learnStatus) {
	d := after.delta(before)
	r.set("psserve.classify_server_ms", d.meanMs("psserve_http_classify_ns"))
	r.set("infer.forward_ms", d.meanMs("infer_forward_ns"))
	r.set("psserve.requests", d["psserve_http_requests_total"])
	r.set("psserve.rejected", d["psserve_http_rejected_total"])
	r.set("psserve.timeouts", d["psserve_http_timeouts_total"])
	r.set("psserve.shed", d["psserve_degrade_shed_total"]+d["psserve_degrade_saturated_total"])
	r.set("psserve.learn_shed", d["psserve_http_learn_shed_total"])
	r.set("continual.examples", float64(st.Status.Trained))
	r.set("continual.candidates", float64(st.Status.Candidates))
	r.set("continual.promotions", float64(st.Status.Promotions))
	r.set("continual.rollbacks", float64(st.Status.Rollbacks))
	dd := drained.delta(before)
	r.set("continual.shadow_ms", dd.meanMs("continual_shadow_ns"))
	r.set("continual.candidate_age_ms", dd.meanMs("continual_candidate_age_ns"))
	r.set("registry.swaps", dd["registry_swaps_total"])
	r.set("registry.load_ms", before.meanMs("registry_load_ns"))
}

// checkServe verifies the served outputs: base-generation answers against
// an engine the benchmark builds from the same file, monotone generation
// tags per connection, every candidate promoted, and offline replay of the
// last promoted audit.
func checkServe(r *run, snapPath string, pool *dataset.Dataset, classify []*request, gens []uint64,
	baseGen uint64, stream *dataset.Dataset, final *learnStatus) error {
	cfg, ctl, err := serveControl()
	if err != nil {
		return err
	}
	snap, err := netio.LoadInferenceFile(snapPath, numClasses)
	if err != nil {
		return err
	}
	eng, err := infer.FromSnapshot(snap, cfg, ctl, numClasses)
	if err != nil {
		return err
	}
	var got, exp []infer.Prediction
	var lat []float64
	lastGen := map[int]uint64{}
	monotone := error(nil)
	for i, q := range classify {
		if gens[i] < lastGen[q.conn] && monotone == nil {
			monotone = fmt.Errorf("connection %d saw generation %d after %d", q.conn, gens[i], lastGen[q.conn])
		}
		lastGen[q.conn] = gens[i]
		if gens[i] != baseGen {
			continue
		}
		var cr classifyResponse
		if err := json.Unmarshal(q.resp, &cr); err != nil {
			return err
		}
		t := time.Now()
		want, err := eng.Predict(pool.Images[q.item], 0) // a single-image batch runs at step 0
		if err != nil {
			return err
		}
		lat = append(lat, float64(time.Since(t))/1e6)
		got, exp = append(got, cr.Predictions[0]), append(exp, want)
	}
	r.set("infer.image_ms.p50", median(lat))
	r.check("generation tags never decrease per connection", monotone)
	r.check("base-generation responses equal a benchmark-built engine", func() error {
		if len(got) == 0 {
			return fmt.Errorf("no response was tagged with the base generation %d", baseGen)
		}
		return samePredictions(got, exp)
	}())
	r.check("every candidate promoted, none rolled back", func() error {
		s := final.Status
		if s.Promotions != s.Candidates || s.Rollbacks != 0 || s.Gated != 0 || s.TrainErrors != 0 {
			return fmt.Errorf("%d candidates: %d promoted, %d gated, %d rolled back, %d train errors",
				s.Candidates, s.Promotions, s.Gated, s.Rollbacks, s.TrainErrors)
		}
		return nil
	}())

	var last *continual.Audit
	for i := range final.Audits {
		if final.Audits[i].Outcome == continual.OutcomePromoted {
			last = &final.Audits[i]
		}
	}
	if last == nil {
		r.check("replay reproduces the last promoted audit", fmt.Errorf("no promoted audit"))
		return nil
	}
	base, err := netio.LoadFile(final.Status.BasePath)
	if err != nil {
		return err
	}
	opts := learn.DefaultOptions()
	opts.Control = ctl
	opts.NumClasses = numClasses
	log := make([]continual.Example, last.Examples)
	for i := range log {
		log[i] = continual.Example{Image: stream.Images[i], Label: stream.Labels[i], Band: final.Status.Tune.Band()}
	}
	replayed, err := continual.Replay(base, cfg, opts, log)
	if err != nil {
		return err
	}
	r.check("replay reproduces the last promoted audit", sameCRC(replayed.PayloadCRC(), last.PayloadCRC))
	return nil
}

// pixels renders an image as a JSON number array, the form psserve's
// documentation shows (encoding/json would send []uint8 as base64).
func pixels(img []uint8) []int {
	out := make([]int, len(img))
	for i, p := range img {
		out[i] = int(p)
	}
	return out
}
