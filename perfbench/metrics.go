package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd is the --trace 0 metric set, printed by every workload; it must
// match BENCHMARK.json's end_to_end list (TestMetricSurface checks).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_minst_per_s", "Minst/s"},
	{"ops_per_s", "1/s"},
	{"op_cpu_p50_ms", "ms"},
	{"op_cpu_p95_ms", "ms"},
	{"heap_mb", "MB"},
}

// perLayer is the --trace 1 metric set; it must match BENCHMARK.json's
// per_layer list.
var perLayer = []metricDef{
	// End-to-end figures of the traced run itself, so the tracing overhead
	// shows against the untraced runs.
	{"trace.setup_s", "s"},
	{"trace.sim_minst_per_s", "Minst/s"},
	{"trace.ops_per_s", "1/s"},
	{"trace.op_cpu_p50_ms", "ms"},
	{"trace.op_cpu_p95_ms", "ms"},
	{"trace.heap_mb", "MB"},
	{"trace.spans", "count"},

	{"cpu.exact_minst_per_s", "Minst/s"},
	{"cpu.functional_minst_per_s", "Minst/s"},
	{"cpu.sampled_minst_per_s", "Minst/s"},
	{"cpu.timing_model_share", "ratio"},
	{"cpu.sim_insts", "count"},
	{"cpu.sim_cycles", "count"},
	{"cpu.l1i_misses", "count"},
	{"cpu.l1d_misses", "count"},
	{"cpu.l2_misses", "count"},
	{"cpu.branch_misses", "count"},
	{"cpu.counter_digest", "hash48"},
	{"cpu.sampled_cycle_err_max_pct", "%"},
	{"cpu.sampled_l1i_err_max_pct", "%"},

	{"kernel.spawn_us", "us"},
	{"kernel.syscalls", "count"},
	{"spec.chain_ms", "ms"},

	{"minic.compile_ms", "ms"},
	{"codegen.compile_ms.native", "ms"},
	{"codegen.compile_ms.chrome", "ms"},
	{"codegen.compile_ms.firefox", "ms"},
	{"codegen.code_bytes", "count"},
	{"codegen.spills", "count"},
	{"codegen.fuzz_compile_us", "us"},
	{"wasm.decode_validate_us", "us"},
	{"wasm.interp_us", "us"},
	{"fuzzgen.generate_us", "us"},
	{"fuzzgen.known_divergences", "count"},

	{"pipeline.mem_hit_us", "us"},
	{"pipeline.misses", "count"},
	{"pipeline.mem_hits", "count"},
	{"pipeline.disk_hits", "count"},
	{"pipeline.retained_kb_per_module", "KB"},
	{"artifact.encode_us", "us"},
	{"artifact.verify_us", "us"},
	{"artifact.decode_us", "us"},
	{"store.write_us", "us"},
	{"store.read_us", "us"},

	{"serve.overhead_ms", "ms"},
	{"serve.hot_p50_ms", "ms"},
	{"serve.hot_p95_ms", "ms"},
	{"serve.cold_p50_ms", "ms"},
	{"serve.cold_p95_ms", "ms"},
	{"serve.rss_mb", "MB"},

	{"go.gc_cpu_share", "ratio"},
	{"go.gc_cycles", "count"},
	{"go.peak_rss_mb", "MB"},
}

// percentile returns the Harrell–Davis estimate of the p-th percentile
// (0..100) of xs: a mean of all order statistics weighted by a Beta
// distribution. Unlike a single order statistic, it does not jump across
// the gaps between ops of very different sizes (a SPEC pass has 45 runs
// from 60 ms to 3 s).
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := p / 100
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var est, prev float64
	for i := 1; i <= n; i++ {
		cur := regIncBeta(a, b, float64(i)/float64(n))
		est += (cur - prev) * s[i-1]
		prev = cur
	}
	return est
}

// regIncBeta is the regularized incomplete beta function I_x(a, b).
func regIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(a*math.Log(x) + b*math.Log1p(-x) + lab - la - lb)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction of the incomplete beta function
// by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const eps, tiny = 1e-15, 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1; m <= 1000; m++ {
		fm, m2 := float64(m), float64(2*m)
		num := fm * (b - fm) * x / ((a - 1 + m2) * (a + m2))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + fm) * (a + b + fm) * x / ((a + m2) * (a + 1 + m2))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timedOps accumulates the timed phase of a workload: per-op CPU times,
// simulated instructions, and windows of identical composition (a SPEC
// pass, a fuzz process's sweep) from which the shared end-to-end metrics
// follow.
//
// Every time is CPU time (user + system) of the process doing the work.
// CPU time leaves out steal, the time the hypervisor gives this guest's
// CPUs to other guests, which on a shared host swings wall-clock figures by
// up to 2x from one hour to the next.
type timedOps struct {
	opCPU     []float64 // ms
	insts     uint64
	attempted int
	failed    int
	windows   []window
	open      window
	openAt    time.Time
	openCPU   time.Duration
}

// window is one stretch of the timed phase.
type window struct {
	ops   int
	insts uint64
	wall  time.Duration
	cpu   time.Duration
}

// begin starts the first window.
func (t *timedOps) begin() {
	t.openAt, t.openCPU = time.Now(), processCPU()
}

// cut closes the current window and opens the next.
func (t *timedOps) cut() {
	now, cpu := time.Now(), processCPU()
	t.open.wall, t.open.cpu = now.Sub(t.openAt), cpu-t.openCPU
	t.windows = append(t.windows, t.open)
	t.open, t.openAt, t.openCPU = window{}, now, cpu
}

// record adds one op's CPU time; ok=false counts it as failed.
func (t *timedOps) record(cpu time.Duration, insts uint64, ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
	t.opCPU = append(t.opCPU, ms(cpu))
	t.insts += insts
	t.open.ops++
	t.open.insts += insts
}

// elapsed is the time since the timed phase began.
func (t *timedOps) elapsed() time.Duration {
	d := time.Since(t.openAt)
	for _, w := range t.windows {
		d += w.wall
	}
	return d
}

// endToEnd returns the shared end-to-end metrics. Rates are medians over
// windows, so a burst of load that slows one window does not move them.
// setup holds the CPU seconds of each set-up repetition, heapMB the live
// heap at the end of the timed phase.
func (t *timedOps) endToEnd(setup []float64, heapMB float64) map[string]float64 {
	var opsRate, instRate []float64
	for _, w := range t.windows {
		opsRate = append(opsRate, float64(w.ops)/w.cpu.Seconds())
		instRate = append(instRate, float64(w.insts)/w.cpu.Seconds()/1e6)
	}
	return map[string]float64{
		"setup_s":         median(setup),
		"sim_minst_per_s": median(instRate),
		"ops_per_s":       median(opsRate),
		"op_cpu_p50_ms":   percentile(t.opCPU, 50),
		"op_cpu_p95_ms":   percentile(t.opCPU, 95),
		"heap_mb":         heapMB,
	}
}

// withPrefix copies m with every key prefixed.
func withPrefix(prefix string, m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[prefix+k] = v
	}
	return out
}

// processCPU returns the CPU time this process has used (user + system).
// It excludes steal: time the hypervisor gave the CPU to other guests.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads a process's peak resident set size (VmHWM) from /proc.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM of %s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// gcSample is a snapshot of this process's GC accounting, or the
// difference between two.
type gcSample struct {
	GCCPU    float64 `json:"gc_cpu_s"`
	TotalCPU float64 `json:"total_cpu_s"`
	Cycles   float64 `json:"gc_cycles"`
}

var gcMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readGC() gcSample {
	s := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return gcSample{s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())}
}

func (a gcSample) sub(b gcSample) gcSample {
	return gcSample{a.GCCPU - b.GCCPU, a.TotalCPU - b.TotalCPU, a.Cycles - b.Cycles}
}

func (a gcSample) add(b gcSample) gcSample {
	return gcSample{a.GCCPU + b.GCCPU, a.TotalCPU + b.TotalCPU, a.Cycles + b.Cycles}
}

// gcMetrics returns the per-layer GC metrics of a difference of samples.
func gcMetrics(d gcSample) map[string]float64 {
	share := 0.0
	if d.TotalCPU > 0 {
		share = d.GCCPU / d.TotalCPU
	}
	return map[string]float64{"go.gc_cpu_share": share, "go.gc_cycles": d.Cycles}
}

// liveHeapMB forces collections and returns the live heap. The second
// collection empties the sync.Pool victim caches the first one filled.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
