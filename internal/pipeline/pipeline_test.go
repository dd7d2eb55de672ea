package pipeline_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codegen"
	"repro/internal/pipeline"
	"repro/internal/sched"
)

const addSrc = `
int main() {
  print_int(40 + 2);
  print_nl();
  return 0;
}`

// TestBuildContentAddressing checks that the cache is keyed by content:
// identical (source, config) pairs share one compiled module, and a config
// that differs in any field — even under the same name — gets its own build.
func TestBuildContentAddressing(t *testing.T) {
	ctx := context.Background()
	a, err := pipeline.Compile(ctx, &pipeline.Request{Module: addSrc, Config: codegen.Chrome()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := pipeline.Compile(ctx, &pipeline.Request{Module: addSrc, Config: codegen.Chrome()})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical builds must share one module")
	}
	ablated := codegen.Chrome() // same Name, different content
	ablated.StackCheck = false
	c, err := pipeline.Compile(ctx, &pipeline.Request{Module: addSrc, Config: ablated})
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("ablated config must not collide with the stock engine")
	}
	if pipeline.Key(addSrc, codegen.Chrome()) == pipeline.Key(addSrc, ablated) {
		t.Error("key must cover every config field, not just the name")
	}
	if pipeline.Key(addSrc, codegen.Chrome()) == pipeline.Key(addSrc+" ", codegen.Chrome()) {
		t.Error("key must cover the source")
	}
}

// TestBuildCachesFailures checks failed builds are cached and fail the same
// way each time.
func TestBuildCachesFailures(t *testing.T) {
	const bad = `int main() { return `
	ctx := context.Background()
	_, err1 := pipeline.Compile(ctx, &pipeline.Request{Module: bad, Config: codegen.Native()})
	_, err2 := pipeline.Compile(ctx, &pipeline.Request{Module: bad, Config: codegen.Native()})
	if err1 == nil || err2 == nil {
		t.Fatal("truncated source must fail to build")
	}
	if err1.Error() != err2.Error() {
		t.Errorf("cached failure diverged: %v vs %v", err1, err2)
	}
}

// TestBuildCacheConcurrent hammers the shared cache and the scheduler from
// many goroutines (run under -race). Every requester of one key must get
// the same module pointer, and concurrent first requests must not duplicate
// modules.
func TestBuildCacheConcurrent(t *testing.T) {
	srcs := make([]string, 4)
	for i := range srcs {
		// i is baked into the source so every test run re-exercises the
		// first-build race on fresh keys, not just cache hits.
		srcs[i] = fmt.Sprintf(`
int main() {
  int acc; int j;
  acc = %d;
  for (j = 0; j < 100; j++) { acc += j; }
  print_int(acc);
  print_nl();
  return 0;
}`, i)
	}
	cfgs := []*codegen.EngineConfig{codegen.Native(), codegen.Chrome(), codegen.Firefox()}

	var mu sync.Mutex
	seen := map[string]*codegen.CompiledModule{}
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, src := range srcs {
				for _, cfg := range cfgs {
					cm, err := pipeline.Compile(context.Background(), &pipeline.Request{Module: src, Config: cfg})
					if err != nil {
						t.Error(err)
						return
					}
					k := pipeline.Key(src, cfg)
					mu.Lock()
					if prev, ok := seen[k]; ok && prev != cm {
						t.Errorf("key %s resolved to two modules", k[:12])
					}
					seen[k] = cm
					mu.Unlock()
				}
			}
		}()
	}
	// Concurrently run executions through the scheduler against the same
	// cache, mirroring suite behaviour.
	jobs := make([]sched.Job, 8)
	for i := range jobs {
		jobs[i] = func(ctx context.Context) error {
			res, err := pipeline.Do(ctx, &pipeline.Request{Module: addSrc, Config: codegen.Firefox()})
			if err != nil {
				return err
			}
			if res.Stdout != "42\n" {
				return fmt.Errorf("stdout %q", res.Stdout)
			}
			return nil
		}
	}
	if err := sched.RunJobs(context.Background(), 0, jobs); err != nil {
		t.Error(err)
	}
	wg.Wait()
}

// TestRunJobsAggregatesAllErrors checks the error contract suite fan-out
// relies on: every failing job is reported, in job order rather than
// completion order.
func TestRunJobsAggregatesAllErrors(t *testing.T) {
	errA := errors.New("job-a failed")
	errB := errors.New("job-b failed")
	jobs := []sched.Job{
		func(ctx context.Context) error { return errA },
		func(ctx context.Context) error { return nil },
		func(ctx context.Context) error { return errB },
	}
	err := sched.RunJobs(context.Background(), 2, jobs)
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("aggregate missing a failure: %v", err)
	}
	s := err.Error()
	if strings.Index(s, "job-a") > strings.Index(s, "job-b") {
		t.Errorf("errors not in job order: %q", s)
	}
}

// TestRunJobsCancellation checks that cancelling a suite's context stops
// dispatch of queued jobs and surfaces the context error.
func TestRunJobsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	release := make(chan struct{})
	jobs := make([]sched.Job, 16)
	for i := range jobs {
		jobs[i] = func(ctx context.Context) error {
			started.Add(1)
			<-release
			return nil
		}
	}
	done := make(chan error, 1)
	go func() { done <- sched.RunJobs(ctx, 2, jobs) }()
	cancel()
	close(release)
	err := <-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("aggregate must include the context error, got %v", err)
	}
	// The feeder re-checks ctx before every dispatch, so after cancel at
	// most one racing send goes out; the queue never fully dispatches.
	if n := started.Load(); n == 16 {
		t.Error("cancellation should stop dispatching queued jobs")
	}
}

// TestCancelPreemptsInFlight checks the ROADMAP item this PR closes: the
// simulator inner loop polls the scheduler context, so cancelling mid-run
// preempts a hung workload instead of waiting for it to finish (it never
// would).
func TestCancelPreemptsInFlight(t *testing.T) {
	const hung = `int main() { while (1) { } return 0; }`
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := pipeline.Do(ctx, &pipeline.Request{Module: hung, Config: codegen.Native()})
		done <- err
	}()
	// Give the workload time to compile and enter its infinite loop, then
	// cancel while it is executing.
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("preempted run returned %v, want context.Canceled in the chain", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancellation did not preempt the in-flight run")
	}
}

// TestExecRunsFiles checks the shared exec path materializes the filesystem
// image (including nested directories) before spawn.
func TestExecRunsFiles(t *testing.T) {
	const src = `
char buf[32];
int main() {
  int fd = sys_open("/data/sub/in.txt", 0, 0);
  if (fd < 0) { return 1; }
  int n = sys_read(fd, buf, 31);
  sys_close(fd);
  sys_write(1, buf, n);
  return 0;
}`
	res, err := pipeline.Do(context.Background(), &pipeline.Request{
		Module: src,
		Config: codegen.Native(),
		Files:  map[string][]byte{"/data/sub/in.txt": []byte("pipelined")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 || res.Stdout != "pipelined" {
		t.Fatalf("exit %d stdout %q", res.ExitCode, res.Stdout)
	}
}
