package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/pipeline"
	"repro/internal/spec"
	"repro/internal/workloads"
)

// expected holds the reference stdout of every SPEC and Polybench program,
// recorded with --record where all three engines agree.
type expected struct {
	SPEC      map[string]string `json:"spec"`
	Polybench map[string]string `json:"polybench"`
}

//go:embed testdata/expected.json
var expectedJSON []byte

func loadExpected() (*expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("decoding testdata/expected.json: %w", err)
	}
	if len(e.SPEC) == 0 || len(e.Polybench) == 0 {
		return nil, fmt.Errorf("testdata/expected.json has no references; regenerate with --record")
	}
	return &e, nil
}

// recordExpected runs every SPEC program through the Browsix-SPEC chain and
// every Polybench kernel through pipeline.Do, each on all three engines,
// and writes the common stdout. Engines that disagree fail the recording.
func recordExpected(ctx context.Context, path string) error {
	if err := os.Setenv("REPRO_CACHE_DIR", "off"); err != nil {
		return err
	}
	e := expected{SPEC: map[string]string{}, Polybench: map[string]string{}}
	h := spec.NewHarness()
	for _, w := range workloads.SPECCPU() {
		out := ""
		for i, cfg := range spec.EngineSet() {
			r, err := h.RunContext(ctx, w, cfg)
			if err != nil {
				return err
			}
			if i > 0 && r.Output != out {
				return fmt.Errorf("%s: %s output differs from native", w.Name, cfg.Name)
			}
			out = r.Output
		}
		e.SPEC[w.Name] = out
	}
	for _, w := range workloads.Polybench() {
		out := ""
		for i, cfg := range spec.EngineSet() {
			res, err := pipeline.Do(ctx, &pipeline.Request{Module: w.Source, Config: cfg, Argv: []string{w.Name}})
			if err != nil {
				return err
			}
			if res.ExitCode != 0 {
				return fmt.Errorf("%s on %s: exit %d", w.Name, cfg.Name, res.ExitCode)
			}
			if i > 0 && res.Stdout != out {
				return fmt.Errorf("%s: %s output differs from native", w.Name, cfg.Name)
			}
			out = res.Stdout
		}
		e.Polybench[w.Name] = out
	}
	data, err := json.MarshalIndent(&e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
