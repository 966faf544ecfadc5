// Command twoclock is the repository's benchmark. It times the TPC-D
// work of the paper two ways — straight on the engine and through the
// SAP R/3 Release 2.2G Open SQL reports — plus an order-entry mix over
// the wire protocol, on two clocks: real Go time and the simulated 1996
// time of internal/cost. Every answer is checked.
//
//	twoclock -workload power|r3_open22|orders_wire -seed N -seconds S -trace 0|1
//
// With -trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with -trace 1 it carries the per-layer metrics
// of a traced run, and the spans go to a JSON file under -out. See
// README.md for what each metric means and which layer should move it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setupReps is how many times each run builds its population; setup_s
// is the median and the last build is the one measured.
const setupReps = 3

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	out      string
}

// window is the length of one measured window: the whole run, or half
// of it in the traced run, which measures an untraced and a traced
// window back to back so that it reports the tracing overhead.
func (c config) window() time.Duration {
	if c.trace {
		return c.seconds / 2
	}
	return c.seconds
}

func (c config) spansPath() string {
	return filepath.Join(c.out, fmt.Sprintf("spans-%s-seed%d.json", c.workload, c.seed))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's outcome: the checked-answer verdict, operations
// attempted and failed, and the metrics of the selected mode.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]metric
	failures  []string
	detail    map[string]any
}

func newResult() *result { return &result{correct: true, metrics: map[string]metric{}} }

func (r *result) put(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// endToEnd lists the end-to-end metrics and their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"mem_peak_mb", "MB"}, {"pass_ms", "ms"}, {"geomean_ms", "ms"},
	{"sim_ms", "sim-ms"}, {"ops_per_s", "1/s"}, {"read_us_p50", "us"}, {"read_us_tail", "us"},
	{"write_us_p50", "us"}, {"write_us_tail", "us"},
}

// putEndToEnd reports the end-to-end metrics from vals.
func (r *result) putEndToEnd(vals map[string]float64) {
	for _, m := range endToEnd {
		r.put(m.name, vals[m.name], m.unit)
	}
}

// check records a named correctness check; any failure makes the run
// incorrect.
func (r *result) check(what string, ok bool) {
	if !ok {
		r.correct = false
		r.failures = append(r.failures, what)
		logf("check failed: %s", what)
	}
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "twoclock: "+format+"\n", args...) }

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "power, r3_open22 or orders_wire")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run with per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build/results", "directory for the detail and span files")
	refOut := flag.String("write-reference", "", "write the engine's Q1-Q17 answers to this file and exit")
	flag.Parse()
	if *refOut != "" {
		if err := writeReference(*refOut, passSF); err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		return
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	if seconds < 1 || (trace != 0 && trace != 1) {
		logf("-seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		logf("%v", err)
		os.Exit(1)
	}

	host := hostMillis()
	var res *result
	var err error
	switch cfg.workload {
	case "power", "r3_open22":
		res, err = runPassWorkload(cfg)
	case "orders_wire":
		res, err = runWireWorkload(cfg)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	res.detail["host_ms"] = host
	if err := emit(cfg, res); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

// emit prints a detail line and writes it to a file, then prints the
// result object as the last line of standard output.
func emit(cfg config, res *result) error {
	if res.detail == nil {
		res.detail = map[string]any{}
	}
	res.detail["failures"] = res.failures
	det, err := json.Marshal(res.detail)
	if err != nil {
		return fmt.Errorf("encoding detail: %w", err)
	}
	name := fmt.Sprintf("detail-%s-seed%d-trace%t.json", cfg.workload, cfg.seed, cfg.trace)
	if err := os.WriteFile(filepath.Join(cfg.out, name), det, 0o644); err != nil {
		return err
	}
	names := make([]string, 0, len(res.metrics))
	for k := range res.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("# %-36s %18.6f %s\n", k, res.metrics[k].Value, res.metrics[k].Unit)
	}
	fmt.Printf("# detail %s\n", det)
	out, err := json.Marshal(map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics,
	})
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	fmt.Println(string(out))
	return nil
}
