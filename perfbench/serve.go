package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"repro/internal/fuzzgen"
	"repro/internal/pipeline"
	"repro/internal/wasm"
	"repro/internal/workloads"
)

// hotKernels are the Polybench kernels the decomposition pass checks the
// sampled tier's error on, spread over the suite's range of instruction
// counts (3.4M to 8.1M).
var hotKernels = []string{"durbin", "bicg", "mvt", "gemver"}

var (
	// engineNames are the paper's three engines.
	engineNames = []string{"native", "chrome", "firefox"}
	// coldTiers are the tiers the decomposition's cold requests rotate
	// through.
	coldTiers = []string{"exact", "functional", "sampled"}
)

// serveReq is one prepared request with what its response must show.
type serveReq struct {
	key      string // hot: kernel/engine/tier; cold: fuzz/seed/engine/tier
	hot      bool
	body     []byte
	stdout   string // hot
	exitCode int    // cold: the reference interpreter's exit code
}

// hotRequest returns the request for one Polybench kernel on one engine and
// tier, with its committed reference output.
func hotRequest(exp *expected, kernel, eng, tier string) (*serveReq, error) {
	ws := workloads.ByName(workloads.Polybench(), kernel)
	want, ok := exp.Polybench[kernel]
	if len(ws) != 1 || !ok {
		return nil, fmt.Errorf("no reference output for %s", kernel)
	}
	body, err := json.Marshal(&pipeline.Request{Module: ws[0].Source, Engine: eng, Fidelity: tier, Argv: []string{kernel}})
	if err != nil {
		return nil, err
	}
	return &serveReq{key: kernel + "/" + eng + "/" + tier, hot: true, body: body, stdout: want}, nil
}

// coldRequest returns the request for the module of one fuzzgen seed
// (generated as the CI sweep generates odd seeds: no planted trap) as raw
// wasm, on one engine and tier.
func coldRequest(seed uint64, eng, tier string) (*serveReq, error) {
	m := fuzzgen.Generate(seed, fuzzgen.Options{})
	code, err := referenceExit(m)
	if err != nil {
		return nil, fmt.Errorf("reference run of fuzz seed %d: %w", seed, err)
	}
	body, err := json.Marshal(&pipeline.Request{Wasm: wasm.Encode(m), Engine: eng, Fidelity: tier, Argv: refArgv})
	if err != nil {
		return nil, err
	}
	return &serveReq{key: fmt.Sprintf("fuzz/%d/%s/%s", seed, eng, tier), body: body, exitCode: code}, nil
}

// refArgv is the argv of every cold request and of its reference run.
var refArgv = []string{"fuzz"}

// referenceExit runs m on the reference interpreter under the kernel
// loader's contract (argument block at 1024, 4-byte pointer slots,
// _start(argc, argv)) and returns the exit code an engine must report.
func referenceExit(m *wasm.Module) (int, error) {
	inst, err := wasm.Instantiate(m, nil)
	if err != nil {
		return 0, err
	}
	inst.MaxSteps = 50_000_000
	const argsBase = 1024
	lin := inst.Mem.Bytes
	off := argsBase + 4*(len(refArgv)+1)
	for i, a := range refArgv {
		putLE32(lin[argsBase+4*i:], uint32(off))
		off += copy(lin[off:], a)
		lin[off] = 0
		off++
	}
	putLE32(lin[argsBase+4*len(refArgv):], 0)
	ret, err := inst.Invoke("_start", uint64(len(refArgv)), argsBase)
	if err != nil {
		return 0, err
	}
	if len(ret) != 1 {
		return 0, fmt.Errorf("_start returned %d values", len(ret))
	}
	return int(int32(ret[0])), nil
}

func putLE32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

// daemon is one repro-serve process owned by the benchmark.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	logf   *os.File
	client *http.Client
}

// startDaemon starts repro-serve on a free loopback port with its artifact
// store in storeDir, and waits until it reports healthy.
func startDaemon(bin, storeDir, logPath string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("no repro-serve binary (--serve-bin)")
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Env = append(os.Environ(), "REPRO_CACHE_DIR="+storeDir)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting repro-serve: %w", err)
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, logf: logf, client: &http.Client{Timeout: 2 * time.Minute}}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := d.client.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("repro-serve did not become healthy: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// stop drains the daemon with SIGTERM, kills it if the drain hangs, and
// waits for it to exit.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
	d.logf.Close()
}

// post sends one request and returns the decoded result and the round-trip
// time (request sent to response body read).
func (d *daemon) post(body []byte) (*pipeline.Result, time.Duration, error) {
	t0 := time.Now()
	resp, err := d.client.Post(d.url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rt := time.Since(t0)
	if err != nil {
		return nil, rt, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, rt, fmt.Errorf("POST /run: %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	var res pipeline.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, rt, fmt.Errorf("decoding /run response: %w", err)
	}
	return &res, rt, nil
}

// check reports whether res is the correct response to r.
func (r *serveReq) check(res *pipeline.Result) error {
	switch {
	case res.Err != nil:
		return res.Err
	case r.hot && (res.ExitCode != 0 || res.Stdout != r.stdout):
		return fmt.Errorf("exit %d, stdout %q differs from the committed reference", res.ExitCode, res.Stdout)
	case !r.hot && res.ExitCode != r.exitCode:
		return fmt.Errorf("exit %d, reference interpreter exits %d", res.ExitCode, r.exitCode)
	}
	return nil
}

// statz fetches the daemon's build-cache counters.
func (d *daemon) statz() (pipeline.CacheStats, error) {
	resp, err := d.client.Get(d.url + "/statz")
	if err != nil {
		return pipeline.CacheStats{}, err
	}
	defer resp.Body.Close()
	var st struct {
		Cache pipeline.CacheStats `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return pipeline.CacheStats{}, fmt.Errorf("decoding /statz: %w", err)
	}
	return st.Cache, nil
}
