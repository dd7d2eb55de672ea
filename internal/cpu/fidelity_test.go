package cpu

// Fidelity-tier tests: the functional fast path must be architecturally
// bit-identical to the exact engine (same return value, memory image,
// registers, and architectural counters — with timing counters untouched),
// and the sampled tier must be deterministic and collapse to exact for
// programs that fit inside the first detailed window.

import (
	"testing"

	"repro/internal/perf"
)

// runGoldenFidelity runs the golden program under a tier and returns the
// finished machine for state inspection.
func runGoldenFidelity(t *testing.T, f Fidelity, period, detail, warmup uint64) (uint64, *Machine) {
	t.Helper()
	m := NewMachine(buildGoldenProgram(), 1, 1)
	m.SetFidelity(f, period, detail, warmup)
	ret, err := m.Call(0)
	if err != nil {
		t.Fatalf("golden program trapped under %v: %v", f, err)
	}
	return ret, m
}

// archCounters extracts the architectural (non-timing) counter subset.
func archCounters(c perf.Counters) perf.Counters {
	return perf.Counters{
		Loads:        c.Loads,
		Stores:       c.Stores,
		Branches:     c.Branches,
		CondBranches: c.CondBranches,
		Instructions: c.Instructions,
	}
}

// TestFunctionalMatchesExact demands bit-identical architectural results
// from the functional tier: return value, registers, linear memory, and the
// architectural counters — while all timing counters stay zero.
func TestFunctionalMatchesExact(t *testing.T) {
	retE, me := runGoldenFidelity(t, FidelityExact, 0, 0, 0)
	retF, mf := runGoldenFidelity(t, FidelityFunctional, 0, 0, 0)
	if retE != retF {
		t.Errorf("return values differ: exact %d, functional %d", retE, retF)
	}
	if me.Regs != mf.Regs {
		t.Errorf("integer registers differ:\n exact:      %v\n functional: %v", me.Regs, mf.Regs)
	}
	if me.Xmm != mf.Xmm {
		t.Errorf("xmm registers differ")
	}
	if string(me.Linear) != string(mf.Linear) {
		t.Errorf("linear memory images differ")
	}
	if ae, af := archCounters(me.Counters), archCounters(mf.Counters); ae != af {
		t.Errorf("architectural counters diverged:\n exact:      %v\n functional: %v",
			ae.String(), af.String())
	}
	c := mf.Counters
	if c.Cycles != 0 || c.L1IMisses != 0 || c.L1DMisses != 0 || c.L2Misses != 0 || c.BranchMiss != 0 {
		t.Errorf("functional tier produced timing counts: %v", c.String())
	}
}

// TestFunctionalBudgetTrap sets every instruction budget from 1 to the
// golden program's retired count. At each budget the uop exact tier must
// stop exactly like the legacy interpreter (same trap PC, same full
// counters after FlushCycles), and the functional tier at the same PC with
// the same architectural counters. The sweep must include a budget that
// expires on the branch half of a fused compare-and-branch pair and one
// whose trapping fetch crosses into a new icache line.
func TestFunctionalBudgetTrap(t *testing.T) {
	run := func(f Fidelity, legacy bool, budget uint64) (*Machine, int) {
		m := NewMachine(buildGoldenProgram(), 1, 1)
		m.NoPredecode = legacy
		m.SetFidelity(f, 0, 0, 0)
		m.MaxInstructions = budget
		_, err := m.Call(0)
		m.FlushCycles()
		if budget >= goldenCounters.Instructions {
			if err != nil {
				t.Fatalf("budget %d under %v (legacy=%v): %v", budget, f, legacy, err)
			}
			return m, -1
		}
		te, ok := err.(*TrapError)
		if !ok || te.Msg != "instruction budget exhausted" {
			t.Fatalf("budget %d under %v (legacy=%v): got %v, want budget trap", budget, f, legacy, err)
		}
		return m, te.PC
	}
	var fusedBranch, lineCross int
	var prevFetches uint64
	for b := uint64(1); b <= goldenCounters.Instructions; b++ {
		me, pce := run(FidelityExact, false, b)
		ml, pcl := run(FidelityExact, true, b)
		mf, pcf := run(FidelityFunctional, false, b)
		if pce != pcl || me.Counters != ml.Counters {
			t.Errorf("budget %d: uop pc=%d %v\n legacy pc=%d %v", b, pce, me.Counters.String(), pcl, ml.Counters.String())
		}
		if ae, af := archCounters(me.Counters), archCounters(mf.Counters); pce != pcf || ae != af {
			t.Errorf("budget %d: exact pc=%d %v\n functional pc=%d %v", b, pce, ae.String(), pcf, af.String())
		}
		if pce > 0 {
			switch me.uops[pce-1].kind {
			case uCmpRRJcc, uCmpRIJcc, uTestRRJcc:
				fusedBranch++
			}
		}
		// Budget b retires one instruction more than budget b-1 and fetches
		// the next: a new L1I probe means that fetch crossed a line.
		if me.L1I.Accesses > prevFetches && b > 1 {
			lineCross++
		}
		prevFetches = me.L1I.Accesses
	}
	if fusedBranch == 0 || lineCross == 0 {
		t.Errorf("sweep hit %d fused-branch budgets and %d line crossings; want both", fusedBranch, lineCross)
	}
}

// TestSampledShortProgramIsExact pins that a program shorter than the first
// detailed window is bit-identical to exact under the sampled tier — the
// first period has no warm-up and never leaves the exact engine.
func TestSampledShortProgramIsExact(t *testing.T) {
	retE, me := runGoldenFidelity(t, FidelityExact, 0, 0, 0)
	retS, ms := runGoldenFidelity(t, FidelitySampled, 0, 0, 0)
	if retE != retS {
		t.Errorf("return values differ: exact %d, sampled %d", retE, retS)
	}
	if me.Counters != ms.Counters {
		t.Errorf("counters diverged:\n exact:   %v\n sampled: %v",
			me.Counters.String(), ms.Counters.String())
	}
}

// TestSampledFullDutyNeverFastForwards pins that a schedule whose warm-up
// and detailed window fill the whole period never fast-forwards, even when
// a fused compare-and-branch pair carries a window one instruction past its
// end: every instruction is then fetched through the icache exactly as in
// the exact tier.
func TestSampledFullDutyNeverFastForwards(t *testing.T) {
	_, me := runGoldenFidelity(t, FidelityExact, 0, 0, 0)
	for _, s := range [][3]uint64{{60, 40, 20}, {50, 30, 20}, {41, 21, 20}} {
		_, ms := runGoldenFidelity(t, FidelitySampled, s[0], s[1], s[2])
		if got, want := ms.L1I.Accesses, me.L1I.Accesses; got != want {
			t.Errorf("schedule %v: %d L1I accesses, exact has %d", s, got, want)
		}
	}
}

// TestSampledDeterminism runs the sampled tier with windows small enough
// that the golden program spans several periods (and so alternates engines)
// and demands identical counters and results across runs.
func TestSampledDeterminism(t *testing.T) {
	const period, detail, warmup = 150, 40, 20
	ret1, m1 := runGoldenFidelity(t, FidelitySampled, period, detail, warmup)
	ret2, m2 := runGoldenFidelity(t, FidelitySampled, period, detail, warmup)
	if ret1 != ret2 {
		t.Errorf("return values differ across runs: %d vs %d", ret1, ret2)
	}
	if m1.Counters != m2.Counters {
		t.Errorf("sampled counters nondeterministic:\n run1: %v\n run2: %v",
			m1.Counters.String(), m2.Counters.String())
	}
	// Architectural counters must still equal exact's, whatever the windows.
	_, me := runGoldenFidelity(t, FidelityExact, 0, 0, 0)
	if ae, as := archCounters(me.Counters), archCounters(m1.Counters); ae != as {
		t.Errorf("sampled architectural counters diverged from exact:\n exact:   %v\n sampled: %v",
			ae.String(), as.String())
	}
	if ret1 != 7109254968427 {
		t.Errorf("sampled run returned %d, want 7109254968427", ret1)
	}
	// Timing counters are pinned too: a change to what the untimed
	// segments model would shift the extrapolated cycles or L1I misses.
	if m1.Counters != sampledGoldenCounters {
		t.Errorf("sampled counters diverged:\n got:  %v\n want: %v",
			m1.Counters.String(), sampledGoldenCounters.String())
	}
}

// sampledGoldenCounters is the golden program's counter snapshot under the
// sampled tier with a 150/40/20 period/detail/warm-up schedule.
var sampledGoldenCounters = perf.Counters{
	Loads:        70,
	Stores:       68,
	Branches:     169,
	CondBranches: 82,
	Instructions: 790,
	Cycles:       2212,
	L1IMisses:    12,
	L1DMisses:    9,
	L2Misses:     9,
	BranchMiss:   2,
}
