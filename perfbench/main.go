// Command perfbench is the repository benchmark: it runs one workload of the
// wasm-vs-native reproduction for a fixed time, checks every operation's
// output against committed references, and prints one JSON result line.
//
// Usage (normally through run.py, which builds this driver and the daemon
// and pins the environment):
//
//	perfbench --workload spec-exact|fuzz-oracle --seed N
//	          --seconds S --trace 0|1 --workdir DIR --serve-bin PATH
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run of the same operation
// sequence plus a decomposition pass (see README.md).
//
// --record FILE writes the reference outputs (testdata/expected.json) from a
// fresh run of every SPEC and Polybench program on all three engines,
// refusing any program whose engines disagree.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// pinnedEnv lists the knobs that must be unset for a run: each changes what
// the program does (remote tier, injected faults, simulation tier, sampling
// windows, scheduler width, watchdogs). REPRO_CACHE_DIR is set by the driver
// itself, per workload.
var pinnedEnv = []string{
	"REPRO_REMOTE_CACHE", "REPRO_FAULTS", "REPRO_FIDELITY",
	"REPRO_SAMPLE_PERIOD", "REPRO_SAMPLE_DETAIL", "REPRO_SAMPLE_WARMUP",
	"REPRO_SCHED_TOKENS", "REPRO_JOB_TIMEOUT", "REPRO_JOB_MAX_INSTS",
}

// runConfig is one run's parameters.
type runConfig struct {
	seed     uint64
	seconds  time.Duration
	trace    bool
	short    bool   // self-test scale: a few ops per workload
	workdir  string // build directory; trace files go to workdir/traces
	tmp      string // run-owned directory, removed at exit
	serveBin string
	expected *expected
}

// outcome is what a workload reports.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string // printed before the result line
}

type workload func(ctx context.Context, rc *runConfig) (*outcome, error)

var workloadsByName = map[string]workload{
	"spec-exact":  runSpecExact,
	"fuzz-oracle": runFuzzOracle,
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: spec-exact or fuzz-oracle")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for run-owned temporary files")
	serveBin := flag.String("serve-bin", "", "repro-serve binary")
	record := flag.String("record", "", "write the reference outputs to this file (testdata/expected.json) and exit")
	layers := flag.Bool("layers", false, "internal: run the decomposition pass and print its metrics")
	fuzzProc := flag.Int("fuzz-batch", -1, "internal: run fuzz process k of a run and print its report")
	fuzzCount := flag.Int("fuzz-count", fuzzSweepSeeds, "internal: number of seeds for --fuzz-batch")
	specSetupChild := flag.Bool("spec-setup", false, "internal: run one spec-exact set-up and print its CPU seconds")
	short := flag.Bool("short", false, "internal: self-test scale for --spec-setup")
	flag.Parse()

	for _, k := range pinnedEnv {
		if v, ok := os.LookupEnv(k); ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s=%q is set; the benchmark runs with it unset\n", k, v)
			return 2
		}
	}
	if *record != "" {
		if err := recordExpected(context.Background(), *record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *specSetupChild {
		cpu, err := specSetup(context.Background(), *short)
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(cpu.Seconds())
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spec-exact set-up:", err)
			return 1
		}
		return 0
	}
	if *fuzzProc >= 0 {
		br, err := fuzzProcess(context.Background(), *seed, *fuzzProc, *fuzzCount, *trace != 0)
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(br)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: fuzz process:", err)
			return 1
		}
		return 0
	}
	exp, err := loadExpected()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *layers {
		lr, err := runLayers(context.Background(), exp, *serveBin, os.Getenv("PERFBENCH_TMP"))
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(lr)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: decomposition:", err)
			return 1
		}
		return 0
	}
	wl, ok := workloadsByName[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	abs, err := filepath.Abs(*workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	tmp, err := newRunDir(abs, *name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	rc := &runConfig{
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace != 0,
		workdir:  abs,
		tmp:      tmp,
		serveBin: *serveBin,
		expected: exp,
	}
	res, err := measure(context.Background(), wl, rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := printResult(os.Stdout, res, rc.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// newRunDir creates the run-owned directory every store, trace and daemon
// file of this run lives in.
func newRunDir(workdir, name string) (string, error) {
	base := filepath.Join(workdir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, name+"-")
}

// measure runs one workload and, for a traced run, the decomposition pass.
func measure(ctx context.Context, wl workload, rc *runConfig) (*outcome, error) {
	res, err := wl(ctx, rc)
	if err != nil {
		return nil, err
	}
	res.notes = append(envNotes(), res.notes...)
	if !rc.trace {
		return res, nil
	}
	lr, err := layersInChild(ctx, rc)
	if err != nil {
		return nil, err
	}
	for k, v := range lr.Metrics {
		res.metrics[k] = v
	}
	res.notes = append(res.notes, lr.Notes...)
	return res, nil
}

// envNotes reports the resolved knobs the run depends on.
func envNotes() []string {
	var kv []string
	for _, k := range append([]string{"REPRO_CACHE_DIR"}, pinnedEnv...) {
		kv = append(kv, k+"="+os.Getenv(k))
	}
	return []string{
		fmt.Sprintf("env GOMAXPROCS=%d nproc=%d %s", runtime.GOMAXPROCS(0), runtime.NumCPU(), strings.Join(kv, " ")),
	}
}

// printResult writes the notes and then the result line.
func printResult(w io.Writer, res *outcome, trace bool) error {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	metrics := map[string]map[string]any{}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, "# "+n)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0 && res.attempted > 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
