package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/fuzzgen"
	"repro/internal/perf"
	"repro/internal/pipeline"
)

const (
	// fuzzSweepSeeds is the seed range one fuzz process judges, seeds 1 to
	// 300: the repository's CI sweep (`wasmfuzz -seeds 300 -seed 1`). A run
	// repeats the sweep in fresh processes, one after another; --seed only
	// orders the seeds within each process. A fixed range keeps the
	// composition of the work the same from run to run: over random
	// 240-seed ranges, seeds/s spread 10% between ranges but 1.8% between
	// repeats of one range. One process per sweep also bounds the heap:
	// every seed leaves six compiled modules in the process-wide build
	// cache, which never evicts (about 1.5 MB of live heap per seed).
	fuzzSweepSeeds = 300
	// fuzzWarmFirst and fuzzWarmSeeds are the seeds each fuzz process
	// judges in set-up: the ones right after the sweep.
	fuzzWarmFirst = fuzzSweepSeeds + 1
	fuzzWarmSeeds = 6
)

// knownDivergences are fuzz seeds on which the native engine's exit code
// differs from the reference interpreter's at the commit that introduced
// this benchmark. They are not ops of fuzz-oracle, whose inputs are the CI
// sweep: every untraced fuzz-oracle run judges them after its timed phase
// and prints each verdict, and every traced run reports how many still
// diverge as fuzzgen.known_divergences.
var knownDivergences = []uint64{22001522, 22700541}

// sweepOrder returns the sweep's seeds in the order fuzz process k of a
// run with the given seed judges them.
func sweepOrder(seed uint64, k int) []uint64 {
	order := make([]uint64, fuzzSweepSeeds)
	for i := range order {
		order[i] = uint64(i + 1)
	}
	rng := rand.New(rand.NewPCG(seed, uint64(k)))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// judgeSeed runs one seed the way cmd/wasmfuzz does: traps planted on every
// other seed, the default engine matrix.
func judgeSeed(ctx context.Context, seed uint64) (*fuzzgen.Verdict, error) {
	return fuzzgen.RunSeed(ctx, seed, fuzzgen.Options{Traps: seed%2 == 0}, fuzzgen.DiffConfig{})
}

// batchResult is what one fuzz process reports.
type batchResult struct {
	SetupS    float64                  `json:"setup_s"` // CPU time from process start
	WallS     float64                  `json:"wall_s"`
	CPUS      float64                  `json:"cpu_s"`
	OpCPU     []float64                `json:"op_cpu_ms"`
	Insts     uint64                   `json:"insts"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	HeapMB    float64                  `json:"heap_mb"` // live, after the timed phase
	PeakRSSMB float64                  `json:"peak_rss_mb"`
	Stats     pipeline.CacheStats      `json:"stats"`
	GC        gcSample                 `json:"gc"`
	Spans     []span                   `json:"spans,omitempty"`
	Counters  map[string]perf.Counters `json:"counters,omitempty"`
}

// fuzzProcess is the body of one fuzz process (the --fuzz-batch child):
// set-up judges the warm-up seeds, then the timed phase judges the first
// count seeds of process k's sweep order, with the artifact store off. A
// seed passes only on Verdict.OK.
func fuzzProcess(ctx context.Context, seed uint64, k, count int, trace bool) (*batchResult, error) {
	if err := os.Setenv("REPRO_CACHE_DIR", "off"); err != nil {
		return nil, err
	}
	for i := 0; i < fuzzWarmSeeds; i++ {
		s := fuzzWarmFirst + uint64(i)
		v, err := judgeSeed(ctx, s)
		if err != nil {
			return nil, fmt.Errorf("warm-up seed %d: %w", s, err)
		}
		if !v.OK() {
			return nil, fmt.Errorf("warm-up seed %d: %s", s, v)
		}
	}
	br := &batchResult{SetupS: processCPU().Seconds()}
	runtime.GC() // every timed phase starts from the same heap
	cpu0 := processCPU()
	tr := newTracer(trace)
	dg := digest{}
	statsBefore, gcBefore := pipeline.Stats(), readGC()
	t0 := time.Now()
	for i, seed := range sweepOrder(seed, k)[:count] {
		sp := tr.begin("fuzzgen.RunSeed", i+1, 0)
		c0 := processCPU()
		v, err := judgeSeed(ctx, seed)
		cpu := processCPU() - c0
		tr.finish(sp)
		br.Attempted++
		br.OpCPU = append(br.OpCPU, ms(cpu))
		if err == nil {
			for variant, o := range v.Runs {
				if o.HasCtrs {
					br.Insts += o.Counters.Instructions
					dg.add(fmt.Sprintf("fuzz/%d/%s", seed, variant), o.Counters)
				}
			}
		}
		if err != nil || !v.OK() {
			br.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: fuzz seed %d failed: %v\n", seed, verdictOrErr(v, err))
		}
	}
	br.WallS = time.Since(t0).Seconds()
	br.CPUS = (processCPU() - cpu0).Seconds()
	br.GC = readGC().sub(gcBefore)
	br.HeapMB = liveHeapMB()
	br.Stats = pipeline.Stats().Sub(statsBefore)
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	br.PeakRSSMB = rss
	if trace {
		br.Spans, br.Counters = tr.spans, dg
	}
	return br, nil
}

// runFuzzBatch runs one fuzz process and decodes its report.
func runFuzzBatch(ctx context.Context, rc *runConfig, k, count int) (*batchResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "--fuzz-batch", strconv.Itoa(k), "--seed", strconv.FormatUint(rc.seed, 10),
		"--fuzz-count", strconv.Itoa(count), "--trace", traceFlag(rc.trace))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("fuzz process %d: %w", k, err)
	}
	var br batchResult
	if err := json.Unmarshal(out.Bytes(), &br); err != nil {
		return nil, fmt.Errorf("decoding fuzz process report: %w", err)
	}
	return &br, nil
}

// runFuzzOracle is the cmd/wasmfuzz loop: fuzz processes judging the CI
// sweep, one after another, until --seconds have elapsed (at least two, so
// set-up is measured more than once). For each seed a process generates a
// module, compiles it six ways (three engines × exact/functional) and runs
// it nine ways against the reference interpreter.
func runFuzzOracle(ctx context.Context, rc *runConfig) (*outcome, error) {
	batch := fuzzSweepSeeds
	if rc.short {
		batch = 3
	}
	var (
		ops        timedOps
		setup, rss []float64
		heap       []float64
		stats      pipeline.CacheStats
		gc         gcSample
		tr         = newTracer(rc.trace)
		dg         = digest{}
		start      = time.Now()
		batchesMin = 2
		perProc    []string
	)
	for k := 0; k < batchesMin || time.Since(start) < rc.seconds; k++ {
		br, err := runFuzzBatch(ctx, rc, k, batch)
		if err != nil {
			return nil, err
		}
		setup = append(setup, br.SetupS)
		rss = append(rss, br.PeakRSSMB)
		heap = append(heap, br.HeapMB)
		perProc = append(perProc, fmt.Sprintf("%.1f", float64(br.Attempted)/br.CPUS))
		ops.windows = append(ops.windows, window{ops: br.Attempted, insts: br.Insts,
			wall: time.Duration(br.WallS * float64(time.Second)), cpu: time.Duration(br.CPUS * float64(time.Second))})
		ops.opCPU = append(ops.opCPU, br.OpCPU...)
		ops.insts += br.Insts
		ops.attempted += br.Attempted
		ops.failed += br.Failed
		stats = addStats(stats, br.Stats)
		gc = gc.add(br.GC)
		if tr != nil {
			base := len(tr.spans)
			for _, s := range br.Spans {
				s.ID += base
				s.Op += ops.attempted - br.Attempted
				tr.spans = append(tr.spans, s)
			}
		}
		for key, c := range br.Counters {
			dg.add(key, c)
		}
	}
	e2e := ops.endToEnd(setup, median(heap))
	res := &outcome{attempted: ops.attempted, failed: ops.failed, metrics: e2e}
	res.notes = append(res.notes, fmt.Sprintf("fuzz sweeps of seeds 1..%d in %d processes, seeds per CPU-second per process: %s", batch, len(setup), strings.Join(perProc, " ")))
	if !rc.trace {
		// The traced run's decomposition pass judges them instead.
		if err := os.Setenv("REPRO_CACHE_DIR", "off"); err != nil {
			return nil, err
		}
		_, notes := judgeKnownDivergences(ctx)
		res.notes = append(res.notes, notes...)
		return res, nil
	}
	res.metrics = withPrefix("trace.", e2e)
	addLayerMetrics(res, tr, dg, gcMetrics(gc), median(rss), stats.Misses, stats.MemHits, stats.DiskHits)
	return res, finishTrace(rc, "fuzz-oracle", res, tr, dg)
}

// judgeKnownDivergences judges knownDivergences and returns how many still
// diverge, with one note per seed.
func judgeKnownDivergences(ctx context.Context) (int, []string) {
	diverging := 0
	var notes []string
	for _, s := range knownDivergences {
		v, err := judgeSeed(ctx, s)
		status := "ok"
		if err != nil || !v.OK() {
			diverging++
			status = "DIVERGES"
		}
		notes = append(notes, fmt.Sprintf("known-divergence fuzz seed %d: %s: %s", s, status, verdictOrErr(v, err)))
	}
	return diverging, notes
}

func traceFlag(on bool) string {
	if on {
		return "1"
	}
	return "0"
}

// addStats sums the counters the benchmark reports.
func addStats(a, b pipeline.CacheStats) pipeline.CacheStats {
	a.Misses += b.Misses
	a.MemHits += b.MemHits
	a.DiskHits += b.DiskHits
	return a
}

func verdictOrErr(v *fuzzgen.Verdict, err error) string {
	if err != nil {
		return err.Error()
	}
	return v.String()
}
