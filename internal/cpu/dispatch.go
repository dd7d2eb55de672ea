package cpu

// Micro-op dispatch loop: the one engine that retires the pre-decoded uop
// stream (decode.go) in every fidelity tier. The exact tier, the functional
// tier, and all three segment kinds of the sampled tier (warm-up, detailed
// window, fast-forward) run the same switch; they differ only in two
// loop-invariant locals read once per chunk:
//
//   - timed (= !m.noTime) gates the icache probe.
//   - model (= timed || m.warm) gates the dcache and the branch predictor:
//     charged in timed segments, warmed without timing during sampled
//     fast-forward (see Machine.warm).
//
// Every quarter-cycle charge to qacc is unconditional. While noTime is set
// FlushCycles discards qacc instead of folding it into Cycles, so untimed
// segments never turn charges into cycles.
//
// Structure: runUops is the outer loop. It handles the machine-level events
// — segment stop (stopAt, set by runSampled), instruction budget and
// interrupt poll (pollAt) — at chunk boundaries, and computes how far chunk
// may run before the next one. chunk then pays one countdown decrement per
// instruction for all three. Instructions is carried as the signed
// countdown rem = limit - Instructions and reconstructed at sync points
// (host calls, the uSlow fallback, chunk exit); rip is carried in a local
// and synced to m.rip before any call that can trap with m.rip or observe
// machine state.
//
// Unspecialized shapes fall back to the legacy single-instruction
// interpreter (m.exec, exec_legacy.go), which applies the same noTime/warm
// gates through dcache, branchTo and FlushCycles. The legacy loop
// (runLegacy) stays the reference oracle the uop loop is tested against.

import (
	"encoding/binary"
	"math"

	"repro/internal/x86"
)

// maxChunk bounds one chunk's span so the countdown fits in int64 even when
// every limit is the ^0 "disabled" sentinel; runUops re-enters cheaply.
const maxChunk = 1 << 30

func budgetTrap(pc int) error {
	return &TrapError{Msg: "instruction budget exhausted", PC: pc}
}

// runUops drives chunk until the program halts, traps, or reaches stopAt.
// At stopAt it returns nil with rip (and lastILine) preserved, so re-entry
// continues bit-identically.
func (m *Machine) runUops() error {
	ops := m.uops
	for !m.halted {
		n := m.Counters.Instructions
		budget := ^uint64(0)
		if m.MaxInstructions > 0 {
			budget = m.MaxInstructions
		}
		if n >= m.stopAt {
			m.FlushCycles()
			return nil
		}
		if n >= budget {
			// The instruction that would exceed the budget is bound-checked,
			// counted and fetched but not executed, and the trap carries its
			// PC, exactly as in the legacy interpreter.
			if uint(m.rip) >= uint(len(ops)) {
				return &TrapError{Msg: "execution left code segment", PC: m.rip}
			}
			m.Counters.Instructions++
			if line := ops[m.rip].line; !m.noTime && line != m.lastILine {
				m.ifetch(line)
			}
			return budgetTrap(m.rip)
		}
		if n >= m.pollAt {
			m.pollAt = n + m.pollEvery
			if err := m.interrupt(); err != nil {
				m.FlushCycles()
				return err
			}
		}
		// A clamped limit is below the budget, so fused pairs cannot cross
		// the budget mid-chunk unless the limit is the budget itself.
		limit := min(m.stopAt, m.pollAt, budget, n+maxChunk)
		if err := m.chunk(ops, limit, limit == budget); err != nil {
			m.FlushCycles()
			return err
		}
	}
	m.FlushCycles()
	return nil
}

// ifetch probes the instruction-cache hierarchy for a line other than the
// last one probed. Unlike the legacy engine's lastLine (which taken
// branches reset to force a probe), lastILine tracks the last line actually
// probed: a repeat probe of that line is a guaranteed hit with no counter
// or cycle effect, and dropping consecutive duplicate touches never changes
// LRU order, so branches back into the current line skip the probe
// bit-identically. Every cache level has 64-byte lines, so line<<6 is
// indistinguishable from the full fetch address.
func (m *Machine) ifetch(line uint32) {
	m.lastILine = line
	if m.L1I.Access(line << 6) {
		return
	}
	m.Counters.L1IMisses++
	if m.L2.Access(line << 6) {
		m.qacc += qL1IMiss
	} else {
		m.qacc += qL2IMiss
	}
}

// chunk retires micro-ops until Instructions reaches limit, an error
// occurs, or the program halts. A fused compare-and-branch pair may drive
// the countdown to -1 (the pair's second retirement crossing the limit),
// which the signed exit arithmetic folds back into the counter.
// budgetTight reports that limit IS the instruction budget, so the fused
// arms' mid-dispatch budget check reduces to a sign test.
func (m *Machine) chunk(ops []uop, limit uint64, budgetTight bool) error {
	rip := m.rip
	rem := int64(limit - m.Counters.Instructions)
	timed := !m.noTime
	model := timed || m.warm // dcache and branch predictor
	var err error

loop:
	for rem > 0 {
		if uint(rip) >= uint(len(ops)) {
			err = &TrapError{Msg: "execution left code segment", PC: rip}
			break loop
		}
		u := &ops[rip]
		rem--
		if timed && u.line != m.lastILine {
			m.ifetch(u.line)
		}

		switch u.kind {
		case uSlow:
			// Sync rip and the count: the legacy interpreter traps with
			// m.rip, and an OCallHost shape would let perf hooks snapshot
			// counters.
			m.rip = rip
			m.Counters.Instructions = limit - uint64(rem)
			if err = m.exec(&m.Prog.Code[rip]); err != nil {
				break loop
			}
			rip = m.rip
			if m.halted {
				break loop
			}

		case uNop:
			rip++

		case uMovRR:
			v := m.Regs[u.src]
			if u.w == 4 {
				v = uint64(uint32(v))
			}
			m.Regs[u.dst] = v
			rip++

		case uMovRI:
			m.Regs[u.dst] = u.imm
			rip++

		case uMovLoad:
			m.rip = rip
			var v uint64
			if v, err = m.load(m.uea(u), u.w); err != nil {
				break loop
			}
			m.Regs[u.dst] = v
			rip++

		case uMovStore:
			m.rip = rip
			if err = m.store(m.uea(u), u.w, m.Regs[u.src]); err != nil {
				break loop
			}
			rip++

		case uMovStoreI:
			m.rip = rip
			if err = m.store(m.uea(u), u.w, u.imm); err != nil {
				break loop
			}
			rip++

		case uExtR:
			v := extend(m.Regs[u.src], u.alu)
			if u.w == 4 {
				v = uint64(uint32(v))
			}
			m.Regs[u.dst] = v
			rip++

		case uExtM:
			a := m.uea(u)
			w := extWidth[u.alu]
			var v uint64
			if s, off, ok := m.fastSlab(a, uint32(w)); ok {
				m.Counters.Loads++
				if model {
					m.dcharge(a)
				}
				switch w {
				case 1:
					v = uint64(s[off])
				case 2:
					v = uint64(binary.LittleEndian.Uint16(s[off:]))
				default:
					v = uint64(binary.LittleEndian.Uint32(s[off:]))
				}
			} else {
				m.rip = rip
				if v, err = m.load(a, w); err != nil {
					break loop
				}
			}
			v = extend(v, u.alu)
			if u.w == 4 {
				v = uint64(uint32(v))
			}
			m.Regs[u.dst] = v
			rip++

		case uLea:
			v := uint64(m.uea(u))
			if u.w == 4 {
				v = uint64(uint32(v))
			}
			m.Regs[u.dst] = v
			rip++

		case uAluRR:
			m.Regs[u.dst] = m.aluOp(u, m.Regs[u.dst], m.Regs[u.src])
			rip++

		case uAluRI:
			m.Regs[u.dst] = m.aluOp(u, m.Regs[u.dst], u.imm)
			rip++

		case uAluRM:
			a := m.uea(u)
			var b uint64
			if s, off, ok := m.fastSlab(a, uint32(u.w)); ok && u.w >= 4 {
				m.Counters.Loads++
				if model {
					m.dcharge(a)
				}
				if u.w == 4 {
					b = uint64(binary.LittleEndian.Uint32(s[off:]))
				} else {
					b = binary.LittleEndian.Uint64(s[off:])
				}
			} else {
				m.rip = rip
				if b, err = m.load(a, u.w); err != nil {
					break loop
				}
			}
			m.Regs[u.dst] = m.aluOp(u, m.Regs[u.dst], b)
			rip++

		case uAluMR:
			m.rip = rip
			ea := m.uea(u)
			var a uint64
			if a, err = m.load(ea, u.w); err != nil {
				break loop
			}
			if err = m.store(ea, u.w, m.aluOp(u, a, m.Regs[u.src])); err != nil {
				break loop
			}
			rip++

		case uAluMI:
			m.rip = rip
			ea := m.uea(u)
			var a uint64
			if a, err = m.load(ea, u.w); err != nil {
				break loop
			}
			if err = m.store(ea, u.w, m.aluOp(u, a, u.imm)); err != nil {
				break loop
			}
			rip++

		case uShiftR:
			var s uint
			if u.w == 4 {
				s = uint(m.Regs[u.src] & 31)
			} else {
				s = uint(m.Regs[u.src] & 63)
			}
			m.Regs[u.dst] = shiftOp(u, m.Regs[u.dst], s)
			rip++

		case uShiftI:
			m.Regs[u.dst] = shiftOp(u, m.Regs[u.dst], uint(u.imm))
			rip++

		case uNegR:
			v := -m.Regs[u.dst]
			if u.w == 4 {
				v = uint64(uint32(v))
			}
			m.Regs[u.dst] = v
			rip++

		case uNotR:
			v := ^m.Regs[u.dst]
			if u.w == 4 {
				v = uint64(uint32(v))
			}
			m.Regs[u.dst] = v
			rip++

		case uBitR:
			m.Regs[u.dst] = bitOp(u, m.Regs[u.src])
			rip++

		case uBitM:
			m.rip = rip
			var v uint64
			if v, err = m.load(m.uea(u), u.w); err != nil {
				break loop
			}
			m.Regs[u.dst] = bitOp(u, v)
			rip++

		case uCdq:
			m.execCdq(u.w)
			rip++

		case uDivR:
			m.rip = rip
			d := m.Regs[u.dst]
			if u.w == 4 {
				d = uint64(uint32(d))
			}
			if err = m.execDiv(d, u.w, u.alu == 1); err != nil {
				break loop
			}
			rip++

		case uDivM:
			m.rip = rip
			var d uint64
			if d, err = m.load(m.uea(u), u.w); err != nil {
				break loop
			}
			if err = m.execDiv(d, u.w, u.alu == 1); err != nil {
				break loop
			}
			rip++

		case uCmpRR:
			m.setCmpFlags(m.Regs[u.dst], m.Regs[u.src], u.w)
			rip++

		case uCmpRI:
			m.setCmpFlags(m.Regs[u.dst], u.imm, u.w)
			rip++

		case uCmpRM:
			a := m.uea(u)
			var b uint64
			if s, off, ok := m.fastSlab(a, uint32(u.w)); ok && u.w >= 4 {
				m.Counters.Loads++
				if model {
					m.dcharge(a)
				}
				if u.w == 4 {
					b = uint64(binary.LittleEndian.Uint32(s[off:]))
				} else {
					b = binary.LittleEndian.Uint64(s[off:])
				}
			} else {
				m.rip = rip
				if b, err = m.load(a, u.w); err != nil {
					break loop
				}
			}
			m.setCmpFlags(m.Regs[u.dst], b, u.w)
			rip++

		case uCmpMR:
			m.rip = rip
			var a uint64
			if a, err = m.load(m.uea(u), u.w); err != nil {
				break loop
			}
			m.setCmpFlags(a, m.Regs[u.src], u.w)
			rip++

		case uCmpMI:
			m.rip = rip
			var a uint64
			if a, err = m.load(m.uea(u), u.w); err != nil {
				break loop
			}
			m.setCmpFlags(a, u.imm, u.w)
			rip++

		case uTestRR:
			m.setTestFlags(m.Regs[u.dst], m.Regs[u.src], u.w)
			rip++

		case uTestRI:
			m.setTestFlags(m.Regs[u.dst], u.imm, u.w)
			rip++

		case uSet:
			var v uint64
			if m.cc(u.cc) {
				v = 1
			}
			m.Regs[u.dst] = (m.Regs[u.dst] &^ 0xff) | v
			rip++

		case uCmovRR:
			if m.cc(u.cc) {
				v := m.Regs[u.src]
				if u.w == 4 {
					v = uint64(uint32(v))
				}
				m.Regs[u.dst] = v
			}
			rip++

		case uCmovRM:
			// cmov with a memory source performs the load either way.
			m.rip = rip
			var v uint64
			if v, err = m.load(m.uea(u), u.w); err != nil {
				break loop
			}
			if m.cc(u.cc) {
				m.Regs[u.dst] = v
			}
			rip++

		// Branch kinds inline the unconditional branchTo body. The legacy
		// engine's lastLine reset is not needed here: the uop loop tracks
		// the last probed line (lastILine), which branches must not
		// disturb.
		case uJmp:
			m.Counters.Branches++
			m.qacc += qBranch
			rip = int(u.tgt)

		case uJcc:
			m.Counters.Branches++
			m.Counters.CondBranches++
			m.qacc += qBranch
			taken := m.cc(u.cc)
			if model && !m.BP.Predict(uint32(u.imm), taken) {
				m.Counters.BranchMiss++
				m.qacc += qMispred
			}
			if taken {
				rip = int(u.tgt)
			} else {
				rip++
			}

		case uJmpTable:
			targets := m.Prog.Code[rip].TableTargets
			idx := int(uint32(m.Regs[u.dst]))
			if idx < 0 || idx >= len(targets) {
				err = &TrapError{Msg: "jump table index out of range", PC: rip}
				break loop
			}
			m.Counters.Loads++ // table entry fetch
			m.qacc += qLoad
			m.Counters.Branches++
			m.qacc += qBranch
			rip = targets[idx]

		case uCall:
			m.Regs[x86.RSP] -= 8
			a := uint32(m.Regs[x86.RSP])
			if s, off, ok := m.fastSlab(a, 8); ok {
				m.Counters.Stores++
				if model {
					m.dcharge(a)
				}
				binary.LittleEndian.PutUint64(s[off:], uint64(rip+1))
			} else {
				m.rip = rip
				if err = m.store(a, 8, uint64(rip+1)); err != nil {
					break loop
				}
			}
			m.Counters.Branches++
			m.qacc += qBranch
			rip = int(u.tgt)

		case uCallR, uCallM:
			var t uint64
			if u.kind == uCallR {
				t = m.Regs[u.dst]
			} else {
				m.rip = rip
				if t, err = m.load(m.uea(u), 8); err != nil {
					break loop
				}
			}
			if t >= uint64(len(ops)) {
				err = &TrapError{Msg: "indirect call to invalid target", PC: rip}
				break loop
			}
			m.Regs[x86.RSP] -= 8
			a := uint32(m.Regs[x86.RSP])
			if s, off, ok := m.fastSlab(a, 8); ok {
				m.Counters.Stores++
				if model {
					m.dcharge(a)
				}
				binary.LittleEndian.PutUint64(s[off:], uint64(rip+1))
			} else {
				m.rip = rip
				if err = m.store(a, 8, uint64(rip+1)); err != nil {
					break loop
				}
			}
			m.Counters.Branches++
			m.qacc += qBranch
			rip = int(t)

		case uRet:
			a := uint32(m.Regs[x86.RSP])
			var ra uint64
			if s, off, ok := m.fastSlab(a, 8); ok {
				m.Counters.Loads++
				if model {
					m.dcharge(a)
				}
				ra = binary.LittleEndian.Uint64(s[off:])
			} else {
				m.rip = rip
				if ra, err = m.load(a, 8); err != nil {
					break loop
				}
			}
			m.Regs[x86.RSP] += 8
			m.Counters.Branches++
			if ra == haltSentinel {
				m.halted = true
				break loop
			}
			m.qacc += qBranch
			rip = int(ra)

		case uPushR:
			m.Regs[x86.RSP] -= 8
			a := uint32(m.Regs[x86.RSP])
			if s, off, ok := m.fastSlab(a, 8); ok {
				m.Counters.Stores++
				if model {
					m.dcharge(a)
				}
				binary.LittleEndian.PutUint64(s[off:], m.Regs[u.src])
			} else {
				m.rip = rip
				if err = m.store(a, 8, m.Regs[u.src]); err != nil {
					break loop
				}
			}
			rip++

		case uPushI:
			m.rip = rip
			m.Regs[x86.RSP] -= 8
			if err = m.store(uint32(m.Regs[x86.RSP]), 8, u.imm); err != nil {
				break loop
			}
			rip++

		case uPushM:
			m.rip = rip
			var v uint64
			if v, err = m.load(m.uea(u), 8); err != nil {
				break loop
			}
			m.Regs[x86.RSP] -= 8
			if err = m.store(uint32(m.Regs[x86.RSP]), 8, v); err != nil {
				break loop
			}
			rip++

		case uPop:
			a := uint32(m.Regs[x86.RSP])
			var v uint64
			if s, off, ok := m.fastSlab(a, 8); ok {
				m.Counters.Loads++
				if model {
					m.dcharge(a)
				}
				v = binary.LittleEndian.Uint64(s[off:])
			} else {
				m.rip = rip
				if v, err = m.load(a, 8); err != nil {
					break loop
				}
			}
			m.Regs[x86.RSP] += 8
			m.Regs[u.dst] = v
			rip++

		case uUd2:
			err = &TrapError{Msg: "unreachable executed (ud2)", PC: rip}
			break loop

		case uCallHost:
			if m.Host == nil {
				err = &TrapError{Msg: "host call with no host bound", PC: rip}
				break loop
			}
			m.Counters.Branches++
			m.qacc += qCallHost
			// Host handlers (syscalls, perf hooks) observe machine state:
			// sync rip and the count before the call.
			m.rip = rip
			m.Counters.Instructions = limit - uint64(rem)
			if err = m.Host(m, int(u.tgt)); err != nil {
				break loop
			}
			rip++

		case uMovsdRR:
			m.Xmm[u.dst] = m.Xmm[u.src]
			rip++

		case uMovsdLoad:
			m.rip = rip
			var v uint64
			if v, err = m.load(m.uea(u), u.w); err != nil {
				break loop
			}
			m.Xmm[u.dst] = v
			rip++

		case uMovsdStore:
			m.rip = rip
			if err = m.store(m.uea(u), u.w, m.Xmm[u.src]); err != nil {
				break loop
			}
			rip++

		case uFAluRR:
			m.Xmm[u.dst] = bitsOf(m.fAluOp(u, f64of(m.Xmm[u.dst], u.w), f64of(m.Xmm[u.src], u.w)), u.w)
			rip++

		case uFAluRM:
			a := m.uea(u)
			var bv uint64
			if s, off, ok := m.fastSlab(a, uint32(u.w)); ok {
				m.Counters.Loads++
				if model {
					m.dcharge(a)
				}
				if u.w == 4 {
					bv = uint64(binary.LittleEndian.Uint32(s[off:]))
				} else {
					bv = binary.LittleEndian.Uint64(s[off:])
				}
			} else {
				m.rip = rip
				if bv, err = m.load(a, u.w); err != nil {
					break loop
				}
			}
			m.Xmm[u.dst] = bitsOf(m.fAluOp(u, f64of(m.Xmm[u.dst], u.w), f64of(bv, u.w)), u.w)
			rip++

		case uSqrtR:
			m.qacc += qFSqrt
			m.Xmm[u.dst] = bitsOf(math.Sqrt(f64of(m.Xmm[u.src], u.w)), u.w)
			rip++

		case uSqrtM:
			m.rip = rip
			var bv uint64
			if bv, err = m.load(m.uea(u), u.w); err != nil {
				break loop
			}
			m.qacc += qFSqrt
			m.Xmm[u.dst] = bitsOf(math.Sqrt(f64of(bv, u.w)), u.w)
			rip++

		case uUcomiR:
			m.setUcomiFlags(f64of(m.Xmm[u.dst], u.w), f64of(m.Xmm[u.src], u.w))
			rip++

		case uUcomiM:
			m.rip = rip
			a := f64of(m.Xmm[u.dst], u.w)
			var bv uint64
			if bv, err = m.load(m.uea(u), u.w); err != nil {
				break loop
			}
			m.setUcomiFlags(a, f64of(bv, u.w))
			rip++

		case uCvtSI2SDR:
			m.qacc += qCvt
			m.Xmm[u.dst] = math.Float64bits(cvtIntToF64(m.Regs[u.src], u.w, u.uns))
			rip++

		case uCvtSI2SDM:
			m.rip = rip
			var v uint64
			if v, err = m.load(m.uea(u), u.w); err != nil {
				break loop
			}
			m.qacc += qCvt
			m.Xmm[u.dst] = math.Float64bits(cvtIntToF64(v, u.w, u.uns))
			rip++

		case uCvtTSD2SIR:
			m.rip = rip
			var r uint64
			if r, err = m.cvtF64ToInt(f64of(m.Xmm[u.src], u.alu), u.w, u.uns); err != nil {
				break loop
			}
			m.Regs[u.dst] = r
			rip++

		case uCvtTSD2SIM:
			m.rip = rip
			var bv uint64
			if bv, err = m.load(m.uea(u), u.alu); err != nil {
				break loop
			}
			var r uint64
			if r, err = m.cvtF64ToInt(f64of(bv, u.alu), u.w, u.uns); err != nil {
				break loop
			}
			m.Regs[u.dst] = r
			rip++

		case uCvtSD2SSR:
			m.qacc += qCvt
			m.Xmm[u.dst] = cvtSD2SS(m.Xmm[u.src])
			rip++

		case uCvtSD2SSM:
			m.rip = rip
			var bv uint64
			if bv, err = m.load(m.uea(u), 8); err != nil {
				break loop
			}
			m.qacc += qCvt
			m.Xmm[u.dst] = cvtSD2SS(bv)
			rip++

		case uCvtSS2SDR:
			m.qacc += qCvt
			m.Xmm[u.dst] = cvtSS2SD(m.Xmm[u.src])
			rip++

		case uCvtSS2SDM:
			m.rip = rip
			var bv uint64
			if bv, err = m.load(m.uea(u), 4); err != nil {
				break loop
			}
			m.qacc += qCvt
			m.Xmm[u.dst] = cvtSS2SD(bv)
			rip++

		case uMovqXR:
			v := m.Regs[u.src]
			if u.w == 4 {
				v = uint64(uint32(v))
			}
			m.Xmm[u.dst] = v
			rip++

		case uMovqRX:
			v := m.Xmm[u.src]
			if u.w == 4 {
				v = uint64(uint32(v))
			}
			m.Regs[u.dst] = v
			rip++

		case uLogicXX:
			if u.alu == 0 {
				m.Xmm[u.dst] &= m.Xmm[u.src]
			} else {
				m.Xmm[u.dst] ^= m.Xmm[u.src]
			}
			rip++

		case uLogicXM:
			m.rip = rip
			var b uint64
			if b, err = m.load(m.uea(u), 8); err != nil {
				break loop
			}
			if u.alu == 0 {
				m.Xmm[u.dst] &= b
			} else {
				m.Xmm[u.dst] ^= b
			}
			rip++

		case uRoundR:
			m.qacc += qCvt
			m.Xmm[u.dst] = bitsOf(roundMode(f64of(m.Xmm[u.src], u.w), u.alu), u.w)
			rip++

		case uRoundM:
			m.rip = rip
			var bv uint64
			if bv, err = m.load(m.uea(u), u.w); err != nil {
				break loop
			}
			m.qacc += qCvt
			m.Xmm[u.dst] = bitsOf(roundMode(f64of(bv, u.w), u.alu), u.w)
			rip++

		// Width-specialized memory kinds: the whole linear-memory fast path
		// (bounds check, retired-access counter, dcache memo, fixed-width
		// access) is inlined here; anything outside linear memory falls back
		// to the generic load/store with identical semantics.
		case uMovLoad64:
			a := m.uea(u)
			var v uint64
			if s, off, ok := m.fastSlab(a, 8); ok {
				m.Counters.Loads++
				if model {
					m.dcharge(a)
				}
				v = binary.LittleEndian.Uint64(s[off:])
			} else {
				m.rip = rip
				if v, err = m.load(a, 8); err != nil {
					break loop
				}
			}
			m.Regs[u.dst] = v
			rip++

		case uMovLoad32:
			a := m.uea(u)
			var v uint64
			if s, off, ok := m.fastSlab(a, 4); ok {
				m.Counters.Loads++
				if model {
					m.dcharge(a)
				}
				v = uint64(binary.LittleEndian.Uint32(s[off:]))
			} else {
				m.rip = rip
				if v, err = m.load(a, 4); err != nil {
					break loop
				}
			}
			m.Regs[u.dst] = v
			rip++

		case uMovStore64:
			a := m.uea(u)
			if s, off, ok := m.fastSlab(a, 8); ok {
				m.Counters.Stores++
				if model {
					m.dcharge(a)
				}
				binary.LittleEndian.PutUint64(s[off:], m.Regs[u.src])
			} else {
				m.rip = rip
				if err = m.store(a, 8, m.Regs[u.src]); err != nil {
					break loop
				}
			}
			rip++

		case uMovStore32:
			a := m.uea(u)
			if s, off, ok := m.fastSlab(a, 4); ok {
				m.Counters.Stores++
				if model {
					m.dcharge(a)
				}
				binary.LittleEndian.PutUint32(s[off:], uint32(m.Regs[u.src]))
			} else {
				m.rip = rip
				if err = m.store(a, 4, m.Regs[u.src]); err != nil {
					break loop
				}
			}
			rip++

		case uFLoad64:
			a := m.uea(u)
			var v uint64
			if s, off, ok := m.fastSlab(a, 8); ok {
				m.Counters.Loads++
				if model {
					m.dcharge(a)
				}
				v = binary.LittleEndian.Uint64(s[off:])
			} else {
				m.rip = rip
				if v, err = m.load(a, 8); err != nil {
					break loop
				}
			}
			m.Xmm[u.dst] = v
			rip++

		case uFLoad32:
			a := m.uea(u)
			var v uint64
			if s, off, ok := m.fastSlab(a, 4); ok {
				m.Counters.Loads++
				if model {
					m.dcharge(a)
				}
				v = uint64(binary.LittleEndian.Uint32(s[off:]))
			} else {
				m.rip = rip
				if v, err = m.load(a, 4); err != nil {
					break loop
				}
			}
			m.Xmm[u.dst] = v
			rip++

		case uFStore64:
			a := m.uea(u)
			if s, off, ok := m.fastSlab(a, 8); ok {
				m.Counters.Stores++
				if model {
					m.dcharge(a)
				}
				binary.LittleEndian.PutUint64(s[off:], m.Xmm[u.src])
			} else {
				m.rip = rip
				if err = m.store(a, 8, m.Xmm[u.src]); err != nil {
					break loop
				}
			}
			rip++

		case uFStore32:
			a := m.uea(u)
			if s, off, ok := m.fastSlab(a, 4); ok {
				m.Counters.Stores++
				if model {
					m.dcharge(a)
				}
				binary.LittleEndian.PutUint32(s[off:], uint32(m.Xmm[u.src]))
			} else {
				m.rip = rip
				if err = m.store(a, 4, m.Xmm[u.src]); err != nil {
					break loop
				}
			}
			rip++

		// Fused compare-and-branch pairs retire two instructions in one
		// dispatch. The branch half's fetch is a guaranteed same-line skip
		// (decode fuses only within one icache line); its real address, for
		// the predictor, is in disp. When the budget expires at the branch,
		// rip advances to it so the trap carries the PC the unfused
		// instruction stream would report.
		case uCmpRRJcc:
			m.setCmpFlags(m.Regs[u.dst], m.Regs[u.src], u.w)
			if rem--; budgetTight && rem < 0 {
				err = budgetTrap(rip + 1)
				rip++
				break loop
			}
			m.Counters.Branches++
			m.Counters.CondBranches++
			m.qacc += qBranch
			taken := m.cc(u.cc)
			if model && !m.BP.Predict(uint32(u.disp), taken) {
				m.Counters.BranchMiss++
				m.qacc += qMispred
			}
			if taken {
				rip = int(u.tgt)
			} else {
				rip += 2
			}

		case uCmpRIJcc:
			m.setCmpFlags(m.Regs[u.dst], u.imm, u.w)
			if rem--; budgetTight && rem < 0 {
				err = budgetTrap(rip + 1)
				rip++
				break loop
			}
			m.Counters.Branches++
			m.Counters.CondBranches++
			m.qacc += qBranch
			taken := m.cc(u.cc)
			if model && !m.BP.Predict(uint32(u.disp), taken) {
				m.Counters.BranchMiss++
				m.qacc += qMispred
			}
			if taken {
				rip = int(u.tgt)
			} else {
				rip += 2
			}

		case uTestRRJcc:
			m.setTestFlags(m.Regs[u.dst], m.Regs[u.src], u.w)
			if rem--; budgetTight && rem < 0 {
				err = budgetTrap(rip + 1)
				rip++
				break loop
			}
			m.Counters.Branches++
			m.Counters.CondBranches++
			m.qacc += qBranch
			taken := m.cc(u.cc)
			if model && !m.BP.Predict(uint32(u.disp), taken) {
				m.Counters.BranchMiss++
				m.qacc += qMispred
			}
			if taken {
				rip = int(u.tgt)
			} else {
				rip += 2
			}
		}
	}

	m.rip = rip
	// rem is -1 when a fused pair's second retirement crossed the limit; the
	// unsigned subtraction folds the overshoot back in (mod 2^64).
	m.Counters.Instructions = limit - uint64(rem)
	return err
}
