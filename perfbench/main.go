// Command perfbench is the repository's benchmark: closed-loop workloads
// driven through the public eunomia Store API, every answer checked against
// a model built from the seed, end-to-end metrics from untraced runs and
// per-layer metrics from a separate traced run. See README.md.
//
//	go run . --workload host-uniform --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 1 when an answer
// or the final contents disagree with the model.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the untraced run's metrics; every workload reports all of
// them (README.md says what each means on each workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"get_p50_us", "us"},
	{"get_p99_us", "us"},
	{"put_p50_us", "us"},
	{"put_p99_us", "us"},
	{"scan_p50_us", "us"},
	{"virtual_mops", "Mops/s"},
	{"recover_s", "s"},
	{"arena_live_mb", "MiB"},
}

// perLayer lists the traced run's metrics, grouped by layer.
var perLayer = []metricDef{
	{"thread.get_p50_us", "us"},
	{"thread.put_p50_us", "us"},
	{"thread.scan_p50_us", "us"},
	{"route_tax.get_us", "us"},
	{"route_tax.put_us", "us"},
	{"route_tax.scan_us", "us"},
	{"cluster.redirects", "count"},
	{"cluster.retries", "count"},
	{"cluster.shed_ops", "count"},
	{"core.root_retries_per_kop", "1/kop"},
	{"core.mark_rejects_per_kop", "1/kop"},
	{"core.splits_per_kop", "1/kop"},
	{"core.compactions_per_kop", "1/kop"},
	{"core.maint_rounds_per_kop", "1/kop"},
	{"htm.tx_loads_per_op", "1/op"},
	{"htm.tx_stores_per_op", "1/op"},
	{"htm.attempts_per_op", "1/op"},
	{"htm.commit_ratio", "share"},
	{"htm.fallbacks_per_kop", "1/kop"},
	{"htm.wasted_cycle_share", "share"},
	{"htm.aborts_per_kop.conflict-false", "1/kop"},
	{"htm.aborts_per_kop.conflict-meta", "1/kop"},
	{"htm.aborts_per_kop.conflict-true", "1/kop"},
	{"htm.aborts_per_kop.capacity", "1/kop"},
	{"htm.aborts_per_kop.fallback-lock", "1/kop"},
	{"vclock.cycles_per_op", "cycles/op"},
	{"simmem.live_bytes_per_key", "B/key"},
	{"simmem.peak_bytes_per_key", "B/key"},
	{"simmem.ccm_bytes_per_key", "B/key"},
	{"durable.fsyncs_per_write", "1/write"},
	{"durable.frames_per_fsync", "1/fsync"},
	{"durable.wal_bytes_per_write", "B/write"},
	{"durable.flush_p50_us", "us"},
	{"durable.flush_p99_us", "us"},
	{"durable.sync_ms", "ms"},
	{"durable.snapshot_ms", "ms"},
	{"durable.snapshots", "count"},
	{"durable.replayed_frames", "count"},
	{"durable.snapshot_pairs", "count"},
	{"durable.disk_bytes_per_live_byte", "B/B"},
	{"trace.overhead_pct", "%"},
}

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	work     string // scratch directory inside the checkout
}

// run collects what one invocation measured.
type run struct {
	cfg   config
	tr    *tracer // nil in untraced runs
	root  uint64  // the run's root span
	tally tally
	bad   []string // failed whole-contents checks
	m     map[string]float64
	info  []string
}

func (r *run) set(name string, v float64) { r.m[name] = v }

func (r *run) say(format string, a ...any) { r.info = append(r.info, fmt.Sprintf(format, a...)) }

var workloads = map[string]func(*run) error{
	"host-uniform": runHost,
	"paper-zipf":   runZipf,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: host-uniform or paper-zipf")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	body, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload host-uniform|paper-zipf, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	cfg.work = filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := &run{cfg: cfg, m: map[string]float64{}}
	if cfg.trace {
		r.tr = newTracer()
	}
	var end func()
	r.root, end = r.tr.begin("run/"+cfg.workload, 0)
	err := body(r)
	end()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if r.tr != nil {
		path := filepath.Join(cfg.work, "trace-"+cfg.workload+".jsonl")
		kept, dropped, err := r.tr.write(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		r.say("trace: %d spans written to %s (%d op spans past the per-worker cap not kept)", kept, path, dropped)
	}
	os.Exit(r.report())
}

// report prints the human summary and the final JSON line, and returns the
// exit code.
func (r *run) report() int {
	defs := endToEnd
	if r.cfg.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   r.tally.wrong == 0 && len(r.bad) == 0,
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed,
		Metrics:   map[string]value{},
	}
	for _, s := range r.info {
		fmt.Println(s)
	}
	for _, s := range append(r.tally.notes, r.bad...) {
		fmt.Println("CHECK:", s)
	}
	fmt.Printf("%s seed=%d seconds=%d trace=%v: attempted=%d failed=%d wrong=%d contents_bad=%d\n",
		r.cfg.workload, r.cfg.seed, r.cfg.seconds, r.cfg.trace, r.tally.attempted, r.tally.failed, r.tally.wrong, len(r.bad))
	var lines []string
	for _, d := range defs {
		v, ok := r.m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.name)
			return 1
		}
		out.Metrics[d.name] = value{v, d.unit}
		lines = append(lines, fmt.Sprintf("  %-36s %14.4f %s", d.name, v, d.unit))
	}
	fmt.Println(strings.Join(lines, "\n"))
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}
