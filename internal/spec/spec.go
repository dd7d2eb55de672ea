// Package spec implements Browsix-SPEC: the benchmark harness of §3 and
// Figure 2. It builds each workload per engine, constructs the filesystem
// image (speccmds.cmd plus inputs), spawns the runspec → specinvoke →
// benchmark process chain inside a Browsix-Wasm kernel, attaches the perf
// recorder between the runtime's perf_begin/perf_end marks, validates
// outputs across engines with a cmp equivalent, and aggregates results into
// the paper's tables and figures.
package spec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/codegen"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/workloads"
)

// runspecSrc is the runspec driver: it spawns specinvoke on the command
// file, mirroring the SPEC tooling chain of Figure 2 step 3.
const runspecSrc = `
int main(int argc, char **argv) {
  char *args[3];
  args[0] = "specinvoke";
  args[1] = argc > 1 ? argv[1] : "/spec/speccmds.cmd";
  args[2] = (char*)0;
  int pid = sys_spawn("/bin/specinvoke", args);
  if (pid < 0) { return 120; }
  return sys_wait(pid);
}`

// specinvokeSrc reads speccmds.cmd and spawns the benchmark with its
// arguments (SPEC's specinvoke, compiled from C sources in the paper).
const specinvokeSrc = `
char cmdbuf[1024];
char *argvv[16];
int main(int argc, char **argv) {
  if (argc < 2) { return 121; }
  int fd = sys_open(argv[1], 0, 0);
  if (fd < 0) { return 122; }
  int n = sys_read(fd, cmdbuf, 1023);
  sys_close(fd);
  if (n <= 0) { return 123; }
  cmdbuf[n] = 0;
  int i = 0; int na = 0;
  while (cmdbuf[i] && cmdbuf[i] != '\n' && na < 15) {
    while (cmdbuf[i] == ' ') { cmdbuf[i] = 0; i++; }
    if (cmdbuf[i] == 0 || cmdbuf[i] == '\n') { break; }
    argvv[na] = &cmdbuf[i];
    na++;
    while (cmdbuf[i] && cmdbuf[i] != ' ' && cmdbuf[i] != '\n') { i++; }
  }
  if (cmdbuf[i] == '\n') { cmdbuf[i] = 0; }
  argvv[na] = (char*)0;
  if (na == 0) { return 124; }
  int pid = sys_spawn(argvv[0], argvv);
  if (pid < 0) { return 125; }
  return sys_wait(pid);
}`

// Result is one benchmark execution under one engine.
type Result struct {
	Bench  string
	Engine string
	// Err marks a failed run in a degraded suite: the workload/engine pair
	// that failed and why (a JobPanicError, a pipeline.TimeoutError, an
	// ordinary build or run error). All measurement fields are zero when Err
	// is set; sinks render such rows as FAILED instead of plotting them.
	Err error
	// Seconds is simulated wall time between the perf marks.
	Seconds float64
	// Counters are the perf-recorded interval counters.
	Counters perf.Counters
	// BrowsixShare is time spent in the kernel/transport (Figure 4).
	BrowsixShare float64
	Syscalls     uint64
	// Output is the validated program output (console).
	Output string
	// CompileSeconds is the engine's code-generation time (Table 2).
	CompileSeconds float64
	// CodeBytes is the generated text size.
	CodeBytes uint32
}

// Harness memoizes runs (executions are deterministic). Builds are not
// harness state: they come from the process-wide content-addressed cache in
// internal/pipeline, so concurrent harnesses share compiles.
type Harness struct {
	// Workers bounds suite parallelism; 0 selects the scheduler default
	// (GOMAXPROCS).
	Workers int

	// Fidelity and SampleWindows select the simulation tier for the
	// harness-owned suites (RunSPEC, RunPolybench, RunAsmJS). The zero value
	// is the exact tier — today's behavior. Callers that pass their own
	// configs to RunSuite set the tier on the configs instead
	// (codegen.EngineConfig.ApplyFidelity).
	Fidelity      codegen.Fidelity
	SampleWindows codegen.SampleWindows

	// Logf, when set, receives per-suite reporting (the build-cache traffic
	// a RunSuite generated: memory hits, disk hits, compiles). Wire it to
	// t.Logf / b.Logf in tests and benchmarks.
	Logf func(format string, args ...any)

	// Degraded makes suite runs survive individual failures: a workload ×
	// engine run that fails (build error, panic, watchdog timeout, output
	// mismatch) becomes a Result with Err set, its row is still delivered
	// to the sinks (rendered as FAILED), and RunSuiteRows returns a
	// *SuiteFailure summarizing every failure — nonzero exit, zero lost
	// rows. Without it, the first failure aborts the suite (the historical
	// strict behavior tests rely on).
	Degraded bool

	mu      sync.Mutex
	results map[string]*Result
}

// FailedRun is one failed workload × engine execution in a degraded suite.
type FailedRun struct {
	Bench  string
	Engine string
	Err    error
}

// SuiteFailure is the error a degraded suite run returns when any run
// failed: the suite completed (every surviving row was measured, validated,
// and delivered) but the run as a whole must not read as clean.
type SuiteFailure struct {
	Failures []FailedRun
	// Total is the number of workload × engine runs attempted.
	Total int
}

func (e *SuiteFailure) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "spec: %d of %d runs failed (degraded suite)", len(e.Failures), e.Total)
	for _, f := range e.Failures {
		msg := f.Err.Error()
		// Keep the summary one line per failure; panic stacks stay
		// available through errors.As on the Failures slice.
		if i := strings.IndexByte(msg, '\n'); i >= 0 {
			msg = msg[:i] + " ..."
		}
		fmt.Fprintf(&sb, "\n  %s on %s: %s", f.Bench, f.Engine, msg)
	}
	return sb.String()
}

// NewHarness returns an empty harness.
func NewHarness() *Harness {
	return &Harness{
		results: map[string]*Result{},
	}
}

// EngineSet returns the paper's engines in presentation order.
func EngineSet() []*codegen.EngineConfig {
	return []*codegen.EngineConfig{
		codegen.Native(), codegen.Chrome(), codegen.Firefox(),
	}
}

// AsmJSEngines returns the asm.js configurations (Figures 5 and 6).
func AsmJSEngines() []*codegen.EngineConfig {
	return []*codegen.EngineConfig{codegen.AsmJSChrome(), codegen.AsmJSFirefox()}
}

// build compiles src for cfg through the shared pipeline cache; key is only
// used for error context, and ctx only for scheduler-budget accounting
// (see pipeline.Compile).
func (h *Harness) build(ctx context.Context, key, src string, cfg *codegen.EngineConfig) (*codegen.CompiledModule, error) {
	cm, err := pipeline.Compile(ctx, &pipeline.Request{Module: src, Config: cfg})
	if err != nil {
		return nil, fmt.Errorf("spec: building %s for %s: %w", key, cfg.Name, err)
	}
	return cm, nil
}

// Run executes workload w under engine cfg through the full Figure 2 chain
// and returns the measurement. Results are memoized under the same content
// address as builds, so configs that differ in any field — not just the
// name — never share a measurement.
func (h *Harness) Run(w *workloads.Workload, cfg *codegen.EngineConfig) (*Result, error) {
	return h.RunContext(context.Background(), w, cfg)
}

// RunContext is Run under a caller context: the whole process chain
// (runspec, specinvoke, the benchmark) polls ctx while simulating, so
// cancellation preempts an in-flight measurement, not just queued ones.
// The per-job watchdog (pipeline.JobLimits) rides the same polling; a
// tripped limit returns a pipeline.TimeoutError with partial counters.
func (h *Harness) RunContext(ctx context.Context, w *workloads.Workload, cfg *codegen.EngineConfig) (*Result, error) {
	if fault.Enabled() && fault.LabelOf(ctx) == "" {
		// Key the compile/exec fault sites under this run by workload name,
		// so a rule can target one workload out of the suite.
		ctx = fault.WithLabel(ctx, w.Name)
	}
	key := w.Name + "/" + pipeline.Key(w.Source, cfg)
	h.mu.Lock()
	if r, ok := h.results[key]; ok {
		h.mu.Unlock()
		return r, nil
	}
	h.mu.Unlock()

	benchBin, err := h.build(ctx, w.Name, w.Source, cfg)
	if err != nil {
		return nil, err
	}
	runspecBin, err := h.build(ctx, "runspec", runspecSrc, cfg)
	if err != nil {
		return nil, err
	}
	specinvBin, err := h.build(ctx, "specinvoke", specinvokeSrc, cfg)
	if err != nil {
		return nil, err
	}

	// Filesystem image: command file plus workload inputs.
	k := kernel.New(nil)
	k.Ctx = ctx
	timeout, maxInsts := pipeline.JobLimits()
	if timeout > 0 {
		// One deadline for the whole process chain: when the watchdog kills
		// the hung benchmark, runspec (blocked in sys_wait) resumes and
		// trips the same deadline at its own next poll, so the WaitPID below
		// surfaces the kill no matter which process hung.
		k.Deadline = time.Now().Add(timeout)
	}
	k.MaxInsts = maxInsts
	// The exec fault site sits after the deadline is armed: an injected
	// delay ("hang") burns the job's wall-clock budget, and the watchdog
	// kills the run at its first interrupt poll — partial counters included.
	if err := fault.Check(fault.SiteExec, w.Name); err != nil {
		return nil, fmt.Errorf("spec: %s on %s: %w", w.Name, cfg.Name, err)
	}
	if err := k.FS.MkdirAll("/spec"); err != nil {
		return nil, err
	}
	cmdline := "/bin/" + w.Name
	for _, a := range w.Args {
		cmdline += " " + a
	}
	if err := k.FS.WriteFile("/spec/speccmds.cmd", []byte(cmdline+"\n")); err != nil {
		return nil, err
	}
	for p, data := range w.Files {
		if err := k.FS.WriteFileAll(p, data); err != nil {
			return nil, err
		}
	}
	k.RegisterBinary("/bin/"+w.Name, benchBin)
	k.RegisterBinary("/bin/runspec", runspecBin)
	k.RegisterBinary("/bin/specinvoke", specinvBin)

	// Perf recorder between the benchmark's perf marks (Figure 2 steps
	// 4-6). Only the benchmark process is recorded, not runspec/specinvoke.
	res := &Result{Bench: w.Name, Engine: cfg.Name}
	var base perf.Counters
	var browsixBase uint64
	benchPath := "/bin/" + w.Name
	k.Hooks = kernel.PerfHooks{
		Begin: func(p *kernel.Process) {
			if p.Path != benchPath {
				return
			}
			p.Inst.FlushCycles()
			base = p.Inst.Counters
			browsixBase = p.BrowsixCycles
		},
		End: func(p *kernel.Process) {
			if p.Path != benchPath {
				return
			}
			p.Inst.FlushCycles()
			res.Counters = p.Inst.Counters.Sub(&base)
			res.Seconds = res.Counters.Seconds()
			browsix := p.BrowsixCycles - browsixBase
			if res.Counters.Cycles > 0 {
				res.BrowsixShare = float64(browsix) / float64(res.Counters.Cycles)
			}
			res.Syscalls = p.Syscalls
		},
	}

	proc, err := k.Spawn(nil, "/bin/runspec", []string{"runspec", "/spec/speccmds.cmd"}, [3]*kernel.FD{})
	if err != nil {
		return nil, err
	}
	code, err := k.WaitPID(proc.PID)
	if err != nil {
		var we *kernel.WatchdogError
		if errors.As(err, &we) {
			// Partial is the waited root's counters (runspec): the killed
			// benchmark's own counters die with its process, but the
			// interval data up to the kill is real — flushed on the
			// interrupt path — and enough to show how far the job got.
			return nil, &pipeline.TimeoutError{
				Label:    w.Name,
				Wall:     we.Wall,
				Timeout:  timeout,
				MaxInsts: maxInsts,
				Partial:  proc.Inst.Counters,
			}
		}
		return nil, fmt.Errorf("spec: %s on %s: %w", w.Name, cfg.Name, err)
	}
	if code != 0 {
		return nil, fmt.Errorf("spec: %s on %s: exit code %d (output %q)", w.Name, cfg.Name, code, string(k.Console))
	}
	res.Output = string(k.Console)
	res.CompileSeconds = benchBin.CompileTime.Seconds()
	res.CodeBytes = benchBin.Prog.CodeBytes

	h.mu.Lock()
	h.results[key] = res
	h.mu.Unlock()
	return res, nil
}

// RunSuite runs every workload in ws under every engine in cfgs, validating
// outputs across engines with the cmp check, and returns results indexed
// [workload][engine].
func (h *Harness) RunSuite(ws []*workloads.Workload, cfgs []*codegen.EngineConfig) ([][]*Result, error) {
	return h.RunSuiteContext(context.Background(), ws, cfgs)
}

// RunSuiteContext is RunSuite under a caller context: cancellation stops the
// suite early. Executions run in parallel on the pipeline scheduler (each is
// fully isolated in its own kernel), bounded by h.Workers, and every failing
// workload/engine pair is reported in the returned error, not just the
// first. The matrix is collected from the streaming core (RunSuiteRows);
// callers that only need figures can use RunSuiteRows directly and skip the
// materialization.
func (h *Harness) RunSuiteContext(ctx context.Context, ws []*workloads.Workload, cfgs []*codegen.EngineConfig) ([][]*Result, error) {
	out := make([][]*Result, len(ws))
	err := h.RunSuiteRows(ctx, ws, cfgs, rowCollector(out))
	var sf *SuiteFailure
	if err != nil && !errors.As(err, &sf) {
		return nil, err
	}
	// A degraded run returns the partial matrix alongside the SuiteFailure:
	// surviving rows are real measurements, failed rows carry Err-marked
	// entries, and the caller decides whether to render despite the error.
	return out, err
}

// rowCollector is the RowSink that materializes the [][]*Result matrix for
// the compatibility API.
type rowCollector [][]*Result

// AddRow implements RowSink.
func (c rowCollector) AddRow(wi int, w *workloads.Workload, row []*Result) {
	c[wi] = append([]*Result(nil), row...)
}

// RunSuiteRows runs every workload in ws under every engine in cfgs and
// streams each workload's validated row (results across cfgs, in engine
// order) into the sinks as it completes, instead of materializing the full
// [][]*Result matrix: a row is delivered once — under a lock, in completion
// order, cmp-validated across engines — and dropped immediately after, so
// peak memory is bounded by the rows in flight, not the suite size. Sinks
// index by the workload position wi to reassemble ordered output (the
// figure builders in figures_stream.go do exactly that).
func (h *Harness) RunSuiteRows(ctx context.Context, ws []*workloads.Workload, cfgs []*codegen.EngineConfig, sinks ...RowSink) error {
	before := pipeline.Stats()
	type rowState struct {
		row  []*Result
		left int
	}
	states := make([]rowState, len(ws))
	for wi := range states {
		states[wi] = rowState{row: make([]*Result, len(cfgs)), left: len(cfgs)}
	}
	var mu sync.Mutex
	var failures []FailedRun
	jobs := make([]sched.WeightedJob, 0, len(ws)*len(cfgs))
	for wi := range ws {
		for ci := range cfgs {
			wi, ci := wi, ci
			jobs = append(jobs, sched.WeightedJob{Weight: ws[wi].ExpectedInstructions(), Run: func(ctx context.Context) error {
				if err := ctx.Err(); err != nil {
					return nil // the scheduler reports the cancellation
				}
				r, err := h.runContained(ctx, ws[wi], cfgs[ci])
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					if !h.Degraded {
						return err
					}
					// Degraded: the failure becomes a marked row entry and a
					// summary line; the suite keeps going.
					failures = append(failures, FailedRun{ws[wi].Name, cfgs[ci].Name, err})
					r = &Result{Bench: ws[wi].Name, Engine: cfgs[ci].Name, Err: err}
				}
				st := &states[wi]
				st.row[ci] = r
				st.left--
				if st.left > 0 {
					return nil
				}
				// Last engine in: validate, deliver, drop. A row with a
				// failed entry skips cmp validation (there is nothing to
				// compare) but is still delivered so sinks render it FAILED.
				row := st.row
				st.row = nil
				if RowOK(row) {
					for i := 1; i < len(row); i++ {
						if row[i].Output != row[0].Output {
							err := fmt.Errorf("spec: %s: output mismatch between %s and %s",
								ws[wi].Name, row[0].Engine, row[i].Engine)
							if !h.Degraded {
								return err
							}
							failures = append(failures, FailedRun{ws[wi].Name, row[i].Engine, err})
							// Mark the whole row: a mismatch impeaches the
							// comparison, not one engine's measurement.
							marked := make([]*Result, len(row))
							for j, rr := range row {
								marked[j] = &Result{Bench: rr.Bench, Engine: rr.Engine, Err: err}
							}
							row = marked
							break
						}
					}
				}
				for _, sk := range sinks {
					sk.AddRow(wi, ws[wi], row)
				}
				return nil
			}})
		}
	}
	// Weighted dispatch: heavy workloads (by expected simulated
	// instructions) are claimed first, so one long SPEC program overlaps
	// the cheap Polybench kernels instead of starting after them.
	err := sched.RunJobsWeighted(ctx, h.Workers, jobs)
	if h.Logf != nil {
		h.Logf("spec suite (%d workloads × %d engines) cache: %v",
			len(ws), len(cfgs), pipeline.Stats().Sub(before))
		if len(failures) > 0 {
			h.Logf("spec suite: %d of %d runs failed (degraded)", len(failures), len(jobs))
		}
	}
	if len(failures) > 0 {
		err = errors.Join(err, &SuiteFailure{Failures: failures, Total: len(jobs)})
	}
	return err
}

// runContained is RunContext with the same panic containment the scheduler
// applies at job boundaries, so a degraded suite can turn a panicking run —
// an injected compile fault, an engine bug — into a failed row instead of a
// failed job (which would abandon the whole row's accounting).
func (h *Harness) runContained(ctx context.Context, w *workloads.Workload, cfg *codegen.EngineConfig) (r *Result, err error) {
	defer func() {
		if pe := sched.CapturePanic(w.Name+" on "+cfg.Name, recover()); pe != nil {
			r, err = nil, pe
		}
	}()
	return h.RunContext(ctx, w, cfg)
}
