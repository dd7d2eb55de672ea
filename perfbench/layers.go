package main

// The decomposition pass of a traced run: fixed measurements that time the
// public functions of each layer from outside, on inputs drawn from the
// workloads. It runs in a child process with its own fresh artifact store,
// so the store and artifact functions can be measured whatever the
// workload's store setting, and so no state of the workload's process
// (build cache, pools, heap) leaks into it.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/codegen"
	"repro/internal/fuzzgen"
	"repro/internal/kernel"
	"repro/internal/minic"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/spec"
	"repro/internal/wasm"
	"repro/internal/workloads"
)

// layersInChild runs the decomposition pass in a child process and returns
// its metrics.
func layersInChild(ctx context.Context, rc *runConfig) (*layerResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(rc.tmp, "layers")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "--layers", "--serve-bin", rc.serveBin)
	cmd.Env = append(os.Environ(), "REPRO_CACHE_DIR="+filepath.Join(dir, "store"), "PERFBENCH_TMP="+dir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("decomposition pass: %w", err)
	}
	var lr layerResult
	if err := json.Unmarshal(out.Bytes(), &lr); err != nil {
		return nil, fmt.Errorf("decoding decomposition metrics: %w", err)
	}
	return &lr, nil
}

// layerResult is what the decomposition child reports.
type layerResult struct {
	Metrics map[string]float64 `json:"metrics"`
	Notes   []string           `json:"notes"`
}

// medianTime runs f reps times and returns the median duration.
func medianTime(reps int, f func() error) (time.Duration, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}

// runLayers is the decomposition pass (the --layers child).
func runLayers(ctx context.Context, exp *expected, serveBin, tmp string) (*layerResult, error) {
	lr := &layerResult{Metrics: map[string]float64{}}
	m := lr.Metrics
	steps := []func(context.Context, map[string]float64) error{
		layerCPUTiers,
		func(ctx context.Context, m map[string]float64) error { return layerSampledError(ctx, m, &lr.Notes) },
		layerSpawn,
		layerChain,
		layerCompile,
		layerFuzz,
		layerPipeline,
		layerRetained,
		func(ctx context.Context, m map[string]float64) error { return layerServe(ctx, m, exp, serveBin, tmp) },
		func(ctx context.Context, m map[string]float64) error {
			n, notes := judgeKnownDivergences(ctx)
			m["fuzzgen.known_divergences"] = float64(n)
			lr.Notes = append(lr.Notes, notes...)
			return nil
		},
	}
	for _, step := range steps {
		if err := step(ctx, m); err != nil {
			return nil, err
		}
	}
	return lr, nil
}

// tierPrograms are the prebuilt SPEC modules the tier throughput
// comparison runs.
var tierPrograms = []string{"470.lbm", "641.leela_s"}

// layerCPUTiers compares host time of the exact, functional and sampled
// tiers on the same prebuilt SPEC modules via pipeline.Execute.
func layerCPUTiers(ctx context.Context, m map[string]float64) error {
	var exactT, funcT time.Duration
	for _, tier := range []string{"exact", "functional", "sampled"} {
		var insts uint64
		var total time.Duration
		for _, w := range workloads.ByName(workloads.SPECCPU(), tierPrograms...) {
			req := &pipeline.Request{Module: w.Source, Engine: "native", Fidelity: tier, Argv: append([]string{w.Name}, w.Args...), Files: w.Files}
			cm, err := pipeline.Compile(ctx, req)
			if err != nil {
				return err
			}
			var res *pipeline.Result
			d, err := medianTime(3, func() (err error) {
				res, err = pipeline.Execute(ctx, cm, req)
				return err
			})
			if err != nil {
				return err
			}
			insts += res.Counters.Instructions
			total += d
		}
		m["cpu."+tier+"_minst_per_s"] = float64(insts) / total.Seconds() / 1e6
		switch tier {
		case "exact":
			exactT = total
		case "functional":
			funcT = total
		}
	}
	m["cpu.timing_model_share"] = 1 - funcT.Seconds()/exactT.Seconds()
	return nil
}

// layerSampledError runs the hot Polybench kernels on every engine at the
// exact and sampled tiers and reports the sampled tier's worst relative
// error in cycles and L1I misses. Each pair's counters go into the notes
// with the sampled tier's error beside them.
func layerSampledError(ctx context.Context, m map[string]float64, notes *[]string) error {
	var cycErr, l1iErr float64
	dg := digest{}
	for _, w := range workloads.ByName(workloads.Polybench(), hotKernels...) {
		for _, eng := range engineNames {
			var c [2]perf.Counters
			for i, tier := range []string{"exact", "sampled"} {
				res, err := pipeline.Do(ctx, &pipeline.Request{Module: w.Source, Engine: eng, Fidelity: tier, Argv: []string{w.Name}})
				if err != nil {
					return err
				}
				c[i] = res.Counters
				dg.add("poly/"+w.Name+"/"+eng+"/"+tier, c[i])
			}
			ce, le := relErrPct(c[1].Cycles, c[0].Cycles), relErrPct(c[1].L1IMisses, c[0].L1IMisses)
			cycErr, l1iErr = math.Max(cycErr, ce), math.Max(l1iErr, le)
			*notes = append(*notes, fmt.Sprintf("sampled-error poly/%s/%s cycles %d vs exact %d (%.2f%%), l1i %d vs exact %d (%.2f%%)",
				w.Name, eng, c[1].Cycles, c[0].Cycles, ce, c[1].L1IMisses, c[0].L1IMisses, le))
		}
	}
	*notes = append(*notes, dg.lines("sampled-check", len(dg))...)
	m["cpu.sampled_cycle_err_max_pct"] = cycErr
	m["cpu.sampled_l1i_err_max_pct"] = l1iErr
	return nil
}

func relErrPct(got, want uint64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 100
	}
	return 100 * math.Abs(float64(got)-float64(want)) / float64(want)
}

// layerSpawn times kernel.New, Spawn and WaitPID of a trivial module.
func layerSpawn(ctx context.Context, m map[string]float64) error {
	cm, err := pipeline.Compile(ctx, &pipeline.Request{Module: trivialSource, Engine: "chrome"})
	if err != nil {
		return err
	}
	d, err := medianTime(300, func() error {
		k := kernel.New(nil)
		k.RegisterBinary("/bin/prog", cm)
		p, err := k.Spawn(nil, "/bin/prog", []string{"prog"}, [3]*kernel.FD{})
		if err != nil {
			return err
		}
		_, err = k.WaitPID(p.PID)
		return err
	})
	m["kernel.spawn_us"] = us(d)
	return err
}

// trivialSource is the module the spawn, chain and serve overheads are
// measured with: its own run time is negligible beside theirs.
const trivialSource = "int main() { return 0; }"

// layerChain measures what the runspec → specinvoke chain adds to a run:
// spec.Harness.RunContext minus a bare pipeline.Execute of the same
// (trivial) module. kernel.syscalls counts the syscalls of the SPEC
// programs' own processes in one chain run each.
func layerChain(ctx context.Context, m map[string]float64) error {
	cfg := codegen.Native()
	w := &workloads.Workload{Name: "perfbench-chain", Source: trivialSource}
	full, err := medianTime(50, func() error {
		_, err := spec.NewHarness().RunContext(ctx, w, cfg)
		return err
	})
	if err != nil {
		return err
	}
	req := &pipeline.Request{Module: w.Source, Config: cfg, Argv: []string{w.Name}}
	cm, err := pipeline.Compile(ctx, req)
	if err != nil {
		return err
	}
	bare, err := medianTime(50, func() error {
		_, err := pipeline.Execute(ctx, cm, req)
		return err
	})
	if err != nil {
		return err
	}
	m["spec.chain_ms"] = ms(full - bare)
	var syscalls uint64
	h := spec.NewHarness()
	for _, w := range workloads.ByName(workloads.SPECCPU(), "453.povray", "482.sphinx3") {
		r, err := h.RunContext(ctx, w, cfg)
		if err != nil {
			return err
		}
		syscalls += r.Syscalls
	}
	m["kernel.syscalls"] = float64(syscalls)
	return nil
}

// layerCompile times minic.Compile and codegen.CompileContext per engine on
// every SPEC program, and sums the generated code size and spills.
func layerCompile(ctx context.Context, m map[string]float64) error {
	ws := workloads.SPECCPU()
	var codeBytes, spills int
	for i, cfg := range spec.EngineSet() {
		abi := pipeline.ABIFor(cfg)
		mods := make([]*wasm.Module, len(ws))
		front, err := medianTime(3, func() error {
			for j, w := range ws {
				mod, err := minic.Compile(w.Source, abi)
				if err != nil {
					return fmt.Errorf("minic %s: %w", w.Name, err)
				}
				mods[j] = mod
			}
			return nil
		})
		if err != nil {
			return err
		}
		if i == 1 { // the wasm32 front-end, shared by the browser engines
			m["minic.compile_ms"] = ms(front)
		}
		var cms []*codegen.CompiledModule
		back, err := medianTime(3, func() error {
			cms = cms[:0]
			for j, mod := range mods {
				cm, err := codegen.CompileContext(ctx, mod, cfg)
				if err != nil {
					return fmt.Errorf("codegen %s for %s: %w", ws[j].Name, cfg.Name, err)
				}
				cms = append(cms, cm)
			}
			return nil
		})
		if err != nil {
			return err
		}
		m["codegen.compile_ms."+cfg.Name] = ms(back)
		for _, cm := range cms {
			codeBytes += int(cm.Prog.CodeBytes)
			spills += cm.TotalSpills
		}
	}
	m["codegen.code_bytes"] = float64(codeBytes)
	m["codegen.spills"] = float64(spills)
	return nil
}

// layerFuzzSeeds is the number of generated modules the fuzz-path layers
// are timed on.
const layerFuzzSeeds = 40

// layerFuzz times the layers a fuzz seed or a cold request goes through:
// fuzzgen.Generate, wasm.Decode+Validate, the reference interpreter
// (Instantiate+Invoke) and codegen.CompileContext on every engine.
func layerFuzz(ctx context.Context, m map[string]float64) error {
	var gen, dv, interp, comp []float64
	for i := 0; i < layerFuzzSeeds; i++ {
		seed := uint64(2*i + 1)
		t0 := time.Now()
		mod := fuzzgen.Generate(seed, fuzzgen.Options{})
		gen = append(gen, us(time.Since(t0)))
		raw := wasm.Encode(mod)
		t0 = time.Now()
		dec, err := wasm.Decode(raw)
		if err == nil {
			err = wasm.Validate(dec)
		}
		dv = append(dv, us(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("decoding fuzz seed %d: %w", seed, err)
		}
		t0 = time.Now()
		if _, err := referenceExit(dec); err != nil {
			return fmt.Errorf("interpreting fuzz seed %d: %w", seed, err)
		}
		interp = append(interp, us(time.Since(t0)))
		for _, eng := range engineNames {
			cfg, err := codegen.Engine(eng)
			if err != nil {
				return err
			}
			t0 = time.Now()
			if _, err := codegen.CompileContext(ctx, dec, cfg); err != nil {
				return fmt.Errorf("compiling fuzz seed %d for %s: %w", seed, eng, err)
			}
			comp = append(comp, us(time.Since(t0)))
		}
	}
	m["fuzzgen.generate_us"] = median(gen)
	m["wasm.decode_validate_us"] = median(dv)
	m["wasm.interp_us"] = median(interp)
	m["codegen.fuzz_compile_us"] = median(comp)
	return nil
}

// layerPipeline times a memory hit of pipeline.Compile, the artifact
// functions (EncodeModule, VerifyArtifact, DecodeModule) and the store
// functions (WriteArtifact, ReadArtifact) on compiled fuzz modules — the
// artifacts a cold serve request publishes.
func layerPipeline(ctx context.Context, m map[string]float64) error {
	w := workloads.ByName(workloads.SPECCPU(), "453.povray")[0]
	hitReq := &pipeline.Request{Module: w.Source, Engine: "chrome"}
	if _, err := pipeline.Compile(ctx, hitReq); err != nil {
		return err
	}
	var hits []float64
	for i := 0; i < 500; i++ {
		t0 := time.Now()
		if _, err := pipeline.Compile(ctx, hitReq); err != nil {
			return err
		}
		hits = append(hits, us(time.Since(t0)))
	}
	m["pipeline.mem_hit_us"] = median(hits)

	dir, ok := pipeline.StoreDir()
	if !ok {
		return fmt.Errorf("the decomposition pass needs an artifact store")
	}
	fp := filepath.Base(dir)
	cfg := codegen.Chrome()
	var enc, ver, dec, wr, rd []float64
	for i := 0; i < layerFuzzSeeds; i++ {
		mod := fuzzgen.Generate(uint64(2*i+1), fuzzgen.Options{})
		cm, err := codegen.CompileContext(ctx, mod, cfg)
		if err != nil {
			return err
		}
		key := pipeline.Key(string(wasm.Encode(mod)), cfg)
		t0 := time.Now()
		data, err := codegen.EncodeModule(cm)
		enc = append(enc, us(time.Since(t0)))
		if err != nil {
			return err
		}
		t0 = time.Now()
		err = pipeline.WriteArtifact(fp, key, data)
		wr = append(wr, us(time.Since(t0)))
		if err != nil {
			return err
		}
		t0 = time.Now()
		back, err := pipeline.ReadArtifact(fp, key)
		rd = append(rd, us(time.Since(t0)))
		if err != nil {
			return err
		}
		t0 = time.Now()
		err = codegen.VerifyArtifact(back)
		ver = append(ver, us(time.Since(t0)))
		if err != nil {
			return err
		}
		t0 = time.Now()
		_, err = codegen.DecodeModule(back, cfg)
		dec = append(dec, us(time.Since(t0)))
		if err != nil {
			return err
		}
	}
	m["artifact.encode_us"] = median(enc)
	m["artifact.verify_us"] = median(ver)
	m["artifact.decode_us"] = median(dec)
	m["store.write_us"] = median(wr)
	m["store.read_us"] = median(rd)
	return nil
}

// layerRetained measures the live heap one cold-built and executed module
// leaves in the build cache, over fresh fuzz modules run through
// pipeline.Do.
func layerRetained(ctx context.Context, m map[string]float64) error {
	const warm, n = 6, 60
	var base float64
	for i := 0; i < warm+n; i++ {
		if i == warm {
			base = liveHeapMB()
		}
		raw := wasm.Encode(fuzzgen.Generate(uint64(2*i+1), fuzzgen.Options{}))
		if _, err := pipeline.Do(ctx, &pipeline.Request{Wasm: raw, Engine: engineNames[i%len(engineNames)], Argv: refArgv}); err != nil {
			return err
		}
	}
	m["pipeline.retained_kb_per_module"] = (liveHeapMB() - base) * 1024 / n
	return nil
}

// layerServeRounds is the number of round trips per request class in the
// serve measurement.
const layerServeRounds = 40

// layerServe starts a daemon on a fresh store and measures hot round trips
// (durbin, native, functional tier: memory hits) and cold ones (fresh fuzz
// modules as raw wasm: a miss, a compile and a publish to the store), the
// daemon's overhead over an in-process Execute of the same module, and the
// daemon's peak RSS. Its /statz counters must show every cold request as a
// miss and every hot one as a memory hit.
func layerServe(ctx context.Context, m map[string]float64, exp *expected, serveBin, tmp string) error {
	d, err := startDaemon(serveBin, filepath.Join(tmp, "serve-store"), filepath.Join(tmp, "serve.log"))
	if err != nil {
		return err
	}
	defer d.stop()
	r, err := hotRequest(exp, "durbin", "native", "functional")
	if err != nil {
		return err
	}
	if _, _, err := d.post(r.body); err != nil {
		return err
	}
	before, err := d.statz()
	if err != nil {
		return err
	}
	var hotRT, coldRT []float64
	for i := 0; i < layerServeRounds; i++ {
		res, rt, err := d.post(r.body)
		if err == nil {
			err = r.check(res)
		}
		if err != nil {
			return err
		}
		hotRT = append(hotRT, ms(rt))
		eng, tier := engineNames[i%9/3], coldTiers[i%3]
		c, err := coldRequest(uint64(2*i+1), eng, tier)
		if err != nil {
			return err
		}
		res, rt, err = d.post(c.body)
		if err == nil {
			err = c.check(res)
		}
		if err != nil {
			return err
		}
		coldRT = append(coldRT, ms(rt))
	}
	after, err := d.statz()
	if err != nil {
		return err
	}
	if delta := after.Sub(before); delta.Misses != layerServeRounds || delta.MemHits != layerServeRounds {
		return fmt.Errorf("repro-serve /statz: %d misses and %d memory hits for %d cold and %d hot requests",
			delta.Misses, delta.MemHits, layerServeRounds, layerServeRounds)
	}
	// Overhead: round trips of a trivial hot module against in-process
	// Executes of the same compiled module.
	req := &pipeline.Request{Module: trivialSource, Engine: "chrome"}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	var trivRT []float64
	for i := 0; i <= layerServeRounds; i++ {
		res, rt, err := d.post(body)
		if err == nil && res.Err != nil {
			err = res.Err
		}
		if err != nil {
			return err
		}
		if i > 0 { // the first request compiles
			trivRT = append(trivRT, ms(rt))
		}
	}
	cm, err := pipeline.Compile(ctx, req)
	if err != nil {
		return err
	}
	exec, err := medianTime(layerServeRounds, func() error {
		_, err := pipeline.Execute(ctx, cm, req)
		return err
	})
	if err != nil {
		return err
	}
	m["serve.overhead_ms"] = median(trivRT) - ms(exec)
	m["serve.hot_p50_ms"] = percentile(hotRT, 50)
	m["serve.hot_p95_ms"] = percentile(hotRT, 95)
	m["serve.cold_p50_ms"] = percentile(coldRT, 50)
	m["serve.cold_p95_ms"] = percentile(coldRT, 95)
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	m["serve.rss_mb"] = rss
	return err
}
