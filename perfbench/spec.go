package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"time"

	"repro/internal/codegen"
	"repro/internal/pipeline"
	"repro/internal/spec"
	"repro/internal/workloads"
)

// specSetupReps is how many times spec-exact repeats its set-up (about
// 0.25 s of CPU each); setup_s is the median. All but the last repetition
// run in fresh child processes (--spec-setup), so each is cold and none
// leaves modules resident in the timed phase; the last runs in this process
// and builds the modules the timed phase runs.
const specSetupReps = 9

// specOrder returns the SPEC suite in the order spec.Harness.RunSuiteRows
// runs it with Workers: 1 — heaviest expected instruction count first,
// engines in presentation order.
func specOrder(short bool) ([]*workloads.Workload, []*codegen.EngineConfig) {
	ws := workloads.SPECCPU()
	if short {
		ws = workloads.ByName(ws, "453.povray", "482.sphinx3")
	}
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].ExpectedInstructions() > ws[j].ExpectedInstructions() })
	return ws, spec.EngineSet()
}

// specSetup is one repetition of spec-exact's set-up, with the artifact
// store off: compile every (program, engine) pair through pipeline.Compile
// and build the runspec → specinvoke chain for every engine. It returns the
// CPU time the set-up took.
func specSetup(ctx context.Context, short bool) (time.Duration, error) {
	if err := os.Setenv("REPRO_CACHE_DIR", "off"); err != nil {
		return 0, err
	}
	ws, engs := specOrder(short)
	c0 := processCPU()
	for _, w := range ws {
		for _, e := range engs {
			if _, err := pipeline.Compile(ctx, &pipeline.Request{Module: w.Source, Config: e}); err != nil {
				return 0, fmt.Errorf("compiling %s for %s: %w", w.Name, e.Name, err)
			}
		}
	}
	if err := warmChain(ctx, engs); err != nil {
		return 0, err
	}
	return processCPU() - c0, nil
}

// specSetupInChild runs one set-up repetition in a fresh child process and
// returns its CPU time.
func specSetupInChild(ctx context.Context, short bool) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	args := []string{"--spec-setup"}
	if short {
		args = append(args, "--short")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("spec-exact set-up process: %w", err)
	}
	var cpuS float64
	if err := json.Unmarshal(out, &cpuS); err != nil {
		return 0, fmt.Errorf("decoding spec-exact set-up report: %w", err)
	}
	return time.Duration(cpuS * float64(time.Second)), nil
}

// warmChain builds runspec and specinvoke (sources private to the spec
// package) for every engine by running a trivial program through the chain.
func warmChain(ctx context.Context, engs []*codegen.EngineConfig) error {
	w := &workloads.Workload{Name: "perfbench-chain", Source: trivialSource}
	h := spec.NewHarness()
	for _, e := range engs {
		if _, err := h.RunContext(ctx, w, e); err != nil {
			return fmt.Errorf("warming the spec chain on %s: %w", e.Name, err)
		}
	}
	return nil
}

// runSpecExact is figure regeneration: every SPEC program on native, chrome
// and firefox at the exact tier, one run at a time through the full
// runspec → specinvoke → benchmark chain, with a fresh Harness per pass
// (the harness memoizes results). Set-up cold-compiles every module with
// the artifact store off, so the timed phase is simulation only.
//
// The timed phase is whole passes, and each pass is one window of the rate
// metrics: at --seconds 20 a run is a single pass, so the rates are its
// totals. Cutting windows below the pass (one per program) made them
// noisier, not steadier: programs simulate at different speeds, so the
// median window is one program's few seconds: over six single-pass
// processes it ranged 91–110 Minst/s while the pass total ranged 94–102.
// The op percentiles are over a like-for-like quantity: each run's CPU
// time per simulated instruction, scaled by the mean instruction count of
// a run (see scaleToMeanOp).
func runSpecExact(ctx context.Context, rc *runConfig) (*outcome, error) {
	reps := specSetupReps
	if rc.short {
		reps = 2
	}
	var setup []float64
	for rep := 0; rep < reps-1; rep++ {
		cpu, err := specSetupInChild(ctx, rc.short)
		if err != nil {
			return nil, err
		}
		setup = append(setup, cpu.Seconds())
	}
	cpu, err := specSetup(ctx, rc.short)
	if err != nil {
		return nil, err
	}
	setup = append(setup, cpu.Seconds())
	ws, engs := specOrder(rc.short)

	// Collect set-up's garbage, so every timed phase starts from the same
	// heap.
	runtime.GC()
	tr := newTracer(rc.trace)
	dg := digest{}
	statsBefore, gcBefore := pipeline.Stats(), readGC()
	var ops timedOps
	var opInsts []uint64
	ops.begin()
	for pass := 0; pass == 0 || ops.elapsed() < rc.seconds; pass++ {
		h := spec.NewHarness()
		passSpan := tr.begin("perfbench.pass", 0, 0)
		for _, w := range ws {
			for _, e := range engs {
				op := ops.attempted + 1
				sp := tr.begin("spec.Harness.RunContext", op, passSpan)
				c0 := processCPU()
				r, err := h.RunContext(ctx, w, e)
				cpu := processCPU() - c0
				tr.finish(sp)
				ok := err == nil && r.Output == rc.expected.SPEC[w.Name]
				var insts uint64
				if err == nil {
					insts = r.Counters.Instructions
					dg.add(fmt.Sprintf("spec/%s/%s/exact", w.Name, e.Name), r.Counters)
				}
				ops.record(cpu, insts, ok)
				opInsts = append(opInsts, insts)
				if !ok {
					fmt.Fprintf(os.Stderr, "perfbench: %s on %s failed: %v\n", w.Name, e.Name, errOrMismatch(err))
				}
			}
		}
		tr.finish(passSpan)
		ops.cut()
	}
	gc := readGC().sub(gcBefore)
	statsDelta := pipeline.Stats().Sub(statsBefore)
	scaleToMeanOp(ops.opCPU, opInsts)
	e2e := ops.endToEnd(setup, liveHeapMB())
	res := &outcome{attempted: ops.attempted, failed: ops.failed, metrics: e2e}
	if !rc.trace {
		return res, nil
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	res.metrics = withPrefix("trace.", e2e)
	addLayerMetrics(res, tr, dg, gcMetrics(gc), rss, statsDelta.Misses, statsDelta.MemHits, statsDelta.DiskHits)
	return res, finishTrace(rc, "spec-exact", res, tr, dg)
}

// scaleToMeanOp rescales each op's CPU time (ms) to the mean instruction
// count of all ops: CPU time per simulated instruction × mean instructions
// per op. SPEC runs range from 60 ms to 3 s, so raw per-run times are not
// one class and their percentiles jump between programs; per-instruction
// costs are. Ops that retired nothing (failed runs) keep their raw time.
func scaleToMeanOp(opCPU []float64, insts []uint64) {
	var total float64
	for _, n := range insts {
		total += float64(n)
	}
	mean := total / float64(len(insts))
	for i, n := range insts {
		if n > 0 {
			opCPU[i] *= mean / float64(n)
		}
	}
}

// errOrMismatch describes a failed op.
func errOrMismatch(err error) string {
	if err != nil {
		return err.Error()
	}
	return "output differs from the committed reference"
}
