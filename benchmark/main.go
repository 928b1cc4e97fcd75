// Command psbenchrec is the benchmark of record: it runs one named workload
// against the program's public Go API (and, for serve-learn, the psserve
// binary), checks the outputs, and prints every metric by name with its
// unit. The last line of standard output is the result object
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics with --trace 0 and the per-layer metrics
// with --trace 1. The line before it is the run's full record: seed, host
// fingerprint, operations per phase, and every number measured.
//
// Run it through run.sh from the repository root, which builds it and
// psserve from source first:
//
//	bash benchmark/run.sh --workload train-base-f32 --seed 1 --seconds 30 --trace 0
//	bash benchmark/run.sh --sweep
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them, each measured on that workload's own path (see
// README.md for the per-workload definitions).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"train_images_per_s", "1/s"},
	{"infer_images_per_s", "1/s"},
	{"classify_p50_ms", "ms"},
	{"classify_p90_ms", "ms"},
	{"learn_to_serve_s", "s"},
}

// perLayer are the traced run's metrics. A layer a workload does not run
// reports 0; README.md says which layers each workload exercises.
var perLayer = []metricDef{
	{"dataset.synth_ms", "ms"},
	{"learn.image_ms.p50", "ms"},
	{"learn.boosts", "count"},
	{"learn.plan_hits", "count"},
	{"learn.accuracy", "ratio"},
	{"encode.plan_build_us", "us"},
	{"encode.lookup_us_per_image", "us"},
	{"network.integrate_us_per_image", "us"},
	{"network.wta_us_per_image", "us"},
	{"synapse.plasticity_us_per_image", "us"},
	{"network.input_spikes_per_image", "count"},
	{"network.exc_spikes_per_image", "count"},
	{"synapse.updates_per_image", "count"},
	{"synapse.accumulate_kb_per_image", "KB"},
	{"engine.dispatches_per_image", "count"},
	{"engine.chunk_us_per_image", "us"},
	{"engine.utilization", "ratio"},
	{"infer.image_ms.p50", "ms"},
	{"netio.save_ms", "ms"},
	{"netio.load_ms", "ms"},
	{"netio.snapshot_mb", "MB"},
	{"obs.overhead", "ratio"},
	{"psserve.classify_server_ms", "ms"},
	{"infer.forward_ms", "ms"},
	{"psserve.requests", "count"},
	{"psserve.rejected", "count"},
	{"psserve.timeouts", "count"},
	{"psserve.shed", "count"},
	{"psserve.learn_shed", "count"},
	{"continual.examples", "count"},
	{"continual.candidates", "count"},
	{"continual.promotions", "count"},
	{"continual.rollbacks", "count"},
	{"continual.shadow_ms", "ms"},
	{"continual.candidate_age_ms", "ms"},
	{"continual.queue_depth.max", "count"},
	{"registry.swaps", "count"},
	{"registry.load_ms", "ms"},
	{"loadgen.late_ms.p99", "ms"},
}

// phase counts the operations one stage of a workload attempted and how
// many of them failed.
type phase struct {
	Name      string `json:"name"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
}

// run is one invocation: its parameters, the phases it went through and
// everything it measured.
type run struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	psserve  string
	workdir  string

	phases []*phase
	values map[string]float64     // every metric measured, by name
	work   map[string]float64     // work done, for reading a metric's spread
	routes map[string]*routeStats // HTTP outcomes per route (serve-learn)
	checks []string               // output checks that passed
	errs   []string               // output checks that failed
}

func (r *run) phase(name string) *phase {
	p := &phase{Name: name}
	r.phases = append(r.phases, p)
	return p
}

func (r *run) set(name string, v float64) { r.values[name] = v }

// note records a quantity of work behind the metrics in the run's record.
func (r *run) note(name string, v float64) { r.work[name] = v }

// check records the outcome of one output check.
func (r *run) check(name string, err error) {
	if err != nil {
		r.errs = append(r.errs, fmt.Sprintf("%s: %v", name, err))
		return
	}
	r.checks = append(r.checks, name)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// host is the fingerprint every record carries.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func fingerprint() host {
	h := host{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPU = strings.TrimSpace(v)
			break
		}
	}
	return h
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run) error{
	"train-base-f32": func(r *run) error { return runTrain(r, baseF32) },
	"train-fast-q17": func(r *run) error { return runTrain(r, fastQ17) },
	"serve-learn":    runServe,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: train-base-f32 | train-fast-q17 | serve-learn")
		seed     = flag.Uint64("seed", 1, "workload seed: every input the program receives is generated from it")
		seconds  = flag.Int("seconds", 30, "run length the workload is sized for")
		trace    = flag.Int("trace", 0, "0 = end-to-end metrics with obs off; 1 = traced run printing per-layer metrics")
		psserve  = flag.String("psserve", ".bench_build/psserve", "psserve binary built from this checkout")
		workdir  = flag.String("workdir", ".bench_build/tmp", "directory for snapshots and checkpoints")
		sweep    = flag.Bool("sweep", false, "run the reference neurons × workers sweep instead of a workload")
	)
	flag.Parse()
	if *sweep {
		if err := runSweep(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "psbenchrec:", err)
			os.Exit(1)
		}
		return
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "psbenchrec: need --workload train-base-f32|train-fast-q17|serve-learn, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(*workdir, *workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "psbenchrec:", err)
		os.Exit(1)
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		psserve: *psserve, workdir: dir, values: map[string]float64{}, work: map[string]float64{},
	}
	err = fn(r)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "psbenchrec: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if err := report(r); err != nil {
		fmt.Fprintln(os.Stderr, "psbenchrec:", err)
		os.Exit(1)
	}
}

// report prints the record line, then the result line.
func report(r *run) error {
	res := result{Correct: len(r.errs) == 0, Metrics: map[string]metricValue{}}
	for _, p := range r.phases {
		res.Attempted += p.Attempted
		res.Failed += p.Failed
	}
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	all := map[string]metricValue{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if v, ok := r.values[d.name]; ok {
			all[d.name] = metricValue{v, d.unit}
		}
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !r.trace {
			return fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "psbenchrec: check failed:", e)
	}
	rec := map[string]any{
		"workload": r.workload, "seed": r.seed, "seconds": r.seconds, "trace": r.trace,
		"host": fingerprint(), "phases": r.phases, "checks_passed": r.checks,
		"checks_failed": r.errs, "metrics": all, "work": r.work, "routes": r.routes,
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"record": rec}); err != nil {
		return err
	}
	return enc.Encode(res)
}
