package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/perf"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call: nothing is traced inside the program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay only a nil check per call.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{origin: time.Now()}
}

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.origin))})
	return len(t.spans)
}

// finish closes span id.
func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.origin))
}

// count is the number of spans recorded.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// write stores the spans as one JSON document per line.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// digest collects the simulated counters of every program × engine × tier
// a run executed. Counters are deterministic, so the digest and the sums
// must be identical across runs of the same code and seed; a change that
// only speeds up the simulator must leave them untouched.
type digest map[string]perf.Counters

func (d digest) add(key string, c perf.Counters) { d[key] = c }

func (d digest) keys() []string {
	ks := make([]string, 0, len(d))
	for k := range d {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// hash returns a 48-bit hash of every entry (exact as a float64 metric) and
// the full hex digest.
func (d digest) hash() (uint64, string) {
	h := sha256.New()
	for _, k := range d.keys() {
		fmt.Fprintf(h, "%s %+v\n", k, d[k])
	}
	sum := h.Sum(nil)
	return binary.BigEndian.Uint64(sum[:8]) >> 16, fmt.Sprintf("%x", sum)
}

// metrics returns the per-layer counter sums and the digest hash.
func (d digest) metrics() map[string]float64 {
	var s perf.Counters
	for _, c := range d {
		s.Instructions += c.Instructions
		s.Cycles += c.Cycles
		s.L1IMisses += c.L1IMisses
		s.L1DMisses += c.L1DMisses
		s.L2Misses += c.L2Misses
		s.BranchMiss += c.BranchMiss
	}
	h48, _ := d.hash()
	return map[string]float64{
		"cpu.sim_insts":      float64(s.Instructions),
		"cpu.sim_cycles":     float64(s.Cycles),
		"cpu.l1i_misses":     float64(s.L1IMisses),
		"cpu.l1d_misses":     float64(s.L1DMisses),
		"cpu.l2_misses":      float64(s.L2Misses),
		"cpu.branch_misses":  float64(s.BranchMiss),
		"cpu.counter_digest": float64(h48),
	}
}

// lines renders the digest for the notes: one line per entry, up to max
// entries, then the totals.
func (d digest) lines(workload string, max int) []string {
	var out []string
	for i, k := range d.keys() {
		if i == max {
			out = append(out, fmt.Sprintf("digest %s: %d more entries in the trace file", workload, len(d)-max))
			break
		}
		h := sha256.Sum256([]byte(fmt.Sprintf("%+v", d[k])))
		out = append(out, fmt.Sprintf("counters %s %x insts=%d cycles=%d", k, h[:6], d[k].Instructions, d[k].Cycles))
	}
	m := d.metrics()
	_, full := d.hash()
	out = append(out, fmt.Sprintf("digest %s entries=%d insts=%.0f cycles=%.0f l1i=%.0f l1d=%.0f l2=%.0f brmiss=%.0f sha256=%s",
		workload, len(d), m["cpu.sim_insts"], m["cpu.sim_cycles"], m["cpu.l1i_misses"],
		m["cpu.l1d_misses"], m["cpu.l2_misses"], m["cpu.branch_misses"], full))
	return out
}

// write stores every entry, one per line.
func (d digest) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, k := range d.keys() {
		fmt.Fprintf(f, "%s %+v\n", k, d[k])
	}
	return f.Close()
}

// addLayerMetrics merges the per-layer metrics every traced workload
// reports from its own op sequence.
func addLayerMetrics(res *outcome, tr *tracer, dg digest, gc map[string]float64, peakRSSMB float64, misses, memHits, diskHits uint64) {
	for k, v := range dg.metrics() {
		res.metrics[k] = v
	}
	for k, v := range gc {
		res.metrics[k] = v
	}
	res.metrics["trace.spans"] = float64(tr.count())
	res.metrics["go.peak_rss_mb"] = peakRSSMB
	res.metrics["pipeline.misses"] = float64(misses)
	res.metrics["pipeline.mem_hits"] = float64(memHits)
	res.metrics["pipeline.disk_hits"] = float64(diskHits)
}

// finishTrace writes the span and digest files and adds the digest to the
// notes.
func finishTrace(rc *runConfig, name string, res *outcome, tr *tracer, dg digest) error {
	dir := filepath.Join(rc.workdir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, rc.seed))
	if err := tr.write(base + ".spans.jsonl"); err != nil {
		return err
	}
	if err := dg.write(base + ".counters.txt"); err != nil {
		return err
	}
	res.notes = append(res.notes, dg.lines(name, 64)...)
	res.notes = append(res.notes, "trace files "+base+".{spans.jsonl,counters.txt}")
	return nil
}
