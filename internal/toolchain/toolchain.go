// Package toolchain ties the mini-C compiler to the engine backends, the
// way Browsix-Wasm ties Emscripten to the browsers: one source program is
// built per engine, with the data model matching the target (wasm32 for the
// browser engines, x86-64 for native). Builds and executions go through
// internal/pipeline, so every caller in one process shares the same
// content-addressed build cache and run path.
package toolchain

import (
	"context"

	"repro/internal/codegen"
	"repro/internal/kernel"
	"repro/internal/minic"
	"repro/internal/pipeline"
	"repro/internal/wasm"
)

// ABIFor returns the data model an engine compiles.
func ABIFor(cfg *codegen.EngineConfig) minic.ABI { return pipeline.ABIFor(cfg) }

// Build compiles mini-C source for one engine through the shared
// content-addressed cache; identical (source, config) pairs compile once
// per process.
func Build(src string, cfg *codegen.EngineConfig) (*codegen.CompiledModule, error) {
	return pipeline.Compile(context.Background(), &pipeline.Request{Module: src, Config: cfg})
}

// BuildWasm compiles mini-C to a raw wasm module (browser ABI), for
// interpreter-based differential testing.
func BuildWasm(src string) (*wasm.Module, error) {
	return minic.Compile(src, minic.ABI32)
}

// RunResult captures one program execution under the kernel.
type RunResult struct {
	ExitCode int
	Stdout   string
	Proc     *kernel.Process
}

// Run builds src for cfg (cached), registers it in a fresh kernel over fs
// contents, spawns it with argv, and waits for completion.
func Run(src string, cfg *codegen.EngineConfig, argv []string, files map[string][]byte) (*RunResult, error) {
	return RunContext(context.Background(), src, cfg, argv, files)
}

// RunContext is Run under a caller context: cancellation preempts the
// simulated processes mid-run (see pipeline.Execute).
func RunContext(ctx context.Context, src string, cfg *codegen.EngineConfig, argv []string, files map[string][]byte) (*RunResult, error) {
	res, err := pipeline.Do(ctx, &pipeline.Request{Module: src, Config: cfg, Argv: argv, Files: files})
	if err != nil {
		return nil, err
	}
	return &RunResult{ExitCode: res.ExitCode, Stdout: res.Stdout, Proc: res.Proc}, nil
}

// RunCompiled executes an already-built binary in a fresh kernel.
func RunCompiled(cm *codegen.CompiledModule, argv []string, files map[string][]byte) (*RunResult, error) {
	res, err := pipeline.Execute(context.Background(), cm, &pipeline.Request{Argv: argv, Files: files})
	if err != nil {
		return nil, err
	}
	return &RunResult{ExitCode: res.ExitCode, Stdout: res.Stdout, Proc: res.Proc}, nil
}
