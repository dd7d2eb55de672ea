package cpu

// Micro-op execution helpers shared by the dispatch loop (dispatch.go) and,
// where noted, by the legacy interpreter (exec_legacy.go): entry (Call),
// tier selection (run), effective addresses, the ALU/shift/bit/float
// sub-operations with their quarter-cycle charges, division and conversion
// with wasm trap semantics, and the legacy branch helper. All counter and
// cycle accounting is bit-identical to the legacy interpreter, which
// remains the reference semantics and the fallback for unspecialized
// shapes (uSlow).

import (
	"math"
	"math/bits"

	"repro/internal/x86"
)

// haltSentinel is the return-address value that terminates execution.
const haltSentinel = ^uint64(0)

// Call runs the function whose entry instruction index is entry, with the
// machine's registers already holding the arguments, until the matching
// return. It returns RAX's final value.
func (m *Machine) Call(entry int) (uint64, error) {
	// Push the halt sentinel as the return address.
	m.Regs[x86.RSP] -= 8
	if err := m.store(uint32(m.Regs[x86.RSP]), 8, haltSentinel); err != nil {
		return 0, err
	}
	// The push above is bookkeeping, not program behaviour.
	m.Counters.Stores--
	m.rip = entry
	m.halted = false
	if err := m.run(); err != nil {
		return 0, err
	}
	return m.Regs[x86.RAX], nil
}

// extWidth maps extension modes to their source load width.
var extWidth = [5]uint8{extZX8: 1, extZX16: 2, extSX8: 1, extSX16: 2, extSXD: 4}

func (m *Machine) run() error {
	if m.NoPredecode {
		// The legacy interpreter is the reference oracle: it always runs
		// exact, regardless of the fidelity tier.
		return m.runLegacy()
	}
	if m.fid == FidelitySampled {
		return m.runSampled()
	}
	return m.runUops()
}

// uea computes the effective address from a micro-op's pre-extracted
// addressing template. Base-less operands zero-extend the displacement (the
// engine's absolute structures live above 2 GiB), matching Machine.ea.
func (m *Machine) uea(u *uop) uint32 {
	var a uint64
	if u.base != 0xff {
		a = m.Regs[u.base] + uint64(int64(u.disp))
	} else {
		a = uint64(uint32(u.disp))
	}
	if u.idx != 0xff {
		a += m.Regs[u.idx] * uint64(u.scale)
	}
	return uint32(a)
}

// aluOp applies the integer ALU sub-operation, charging the multiply cost
// and applying 32-bit result truncation exactly like the legacy engine.
func (m *Machine) aluOp(u *uop, a, b uint64) uint64 {
	var r uint64
	switch u.alu {
	case aluAdd:
		r = a + b
	case aluSub:
		r = a - b
	case aluAnd:
		r = a & b
	case aluOr:
		r = a | b
	case aluXor:
		r = a ^ b
	case aluImul:
		r = a * b
		m.qacc += qMul
	}
	if u.w == 4 {
		r = uint64(uint32(r))
	}
	return r
}

// shiftOp applies a shift/rotate with a pre-masked count.
func shiftOp(u *uop, a uint64, s uint) uint64 {
	var r uint64
	switch u.alu {
	case shfShl:
		r = a << s
	case shfShr:
		if u.w == 4 {
			r = uint64(uint32(a) >> s)
		} else {
			r = a >> s
		}
	case shfSar:
		if u.w == 4 {
			r = uint64(uint32(int32(uint32(a)) >> s))
		} else {
			r = uint64(int64(a) >> s)
		}
	case shfRol:
		if u.w == 4 {
			r = uint64(bits.RotateLeft32(uint32(a), int(s)))
		} else {
			r = bits.RotateLeft64(a, int(s))
		}
	case shfRor:
		if u.w == 4 {
			r = uint64(bits.RotateLeft32(uint32(a), -int(s)))
		} else {
			r = bits.RotateLeft64(a, -int(s))
		}
	}
	if u.w == 4 {
		r = uint64(uint32(r))
	}
	return r
}

// extend applies a zero/sign-extension mode.
func extend(v uint64, mode uint8) uint64 {
	switch mode {
	case extZX8:
		return v & 0xff
	case extZX16:
		return v & 0xffff
	case extSX8:
		return uint64(int64(int8(v)))
	case extSX16:
		return uint64(int64(int16(v)))
	default: // extSXD
		return uint64(int64(int32(uint32(v))))
	}
}

// bitOp applies bsr/bsf/popcnt (modeled as lzcnt/tzcnt/popcnt).
func bitOp(u *uop, v uint64) uint64 {
	switch u.alu {
	case bitBsr:
		if u.w == 4 {
			return uint64(bits.LeadingZeros32(uint32(v)))
		}
		return uint64(bits.LeadingZeros64(v))
	case bitBsf:
		if u.w == 4 {
			return uint64(bits.TrailingZeros32(uint32(v)))
		}
		return uint64(bits.TrailingZeros64(v))
	default: // bitPopcnt
		if u.w == 4 {
			return uint64(bits.OnesCount32(uint32(v)))
		}
		return uint64(bits.OnesCount64(v))
	}
}

// fAluOp applies a scalar float op with Wasm min/max semantics and float32
// re-rounding at width 4, charging the op's cycle cost.
func (m *Machine) fAluOp(u *uop, a, b float64) float64 {
	var r float64
	switch u.alu {
	case fAdd:
		r = a + b
		m.qacc += qFALU
	case fSub:
		r = a - b
		m.qacc += qFALU
	case fMul:
		r = a * b
		m.qacc += qFALU
	case fDiv:
		r = a / b
		m.qacc += qFDiv
	case fMin:
		r = wasmMin(a, b)
		m.qacc += qFALU
	case fMax:
		r = wasmMax(a, b)
		m.qacc += qFALU
	}
	if u.w == 4 {
		// float32 rounding at each step
		r = float64(float32(r))
	}
	return r
}

// execCdq sign-extends RAX into RDX (cdq/cqo).
func (m *Machine) execCdq(w uint8) {
	if w == 4 {
		if int32(uint32(m.Regs[x86.RAX])) < 0 {
			m.Regs[x86.RDX] = uint64(uint32(0xffffffff))
		} else {
			m.Regs[x86.RDX] = 0
		}
	} else {
		if int64(m.Regs[x86.RAX]) < 0 {
			m.Regs[x86.RDX] = ^uint64(0)
		} else {
			m.Regs[x86.RDX] = 0
		}
	}
}

// execDiv divides RDX:RAX (modeled as RAX alone) by d, writing quotient and
// remainder to RAX/RDX with trap semantics and cycle charges.
func (m *Machine) execDiv(d uint64, w uint8, signed bool) error {
	if w == 4 {
		m.q(qDiv32)
	} else {
		m.q(qDiv64)
	}
	if w == 4 {
		div := uint32(d)
		if div == 0 {
			return &TrapError{Msg: "integer divide by zero", PC: m.rip}
		}
		a := uint32(m.Regs[x86.RAX])
		if signed {
			if int32(a) == math.MinInt32 && int32(div) == -1 {
				return &TrapError{Msg: "integer overflow", PC: m.rip}
			}
			q := int32(a) / int32(div)
			r := int32(a) % int32(div)
			m.Regs[x86.RAX] = uint64(uint32(q))
			m.Regs[x86.RDX] = uint64(uint32(r))
		} else {
			m.Regs[x86.RAX] = uint64(a / div)
			m.Regs[x86.RDX] = uint64(a % div)
		}
		return nil
	}
	if d == 0 {
		return &TrapError{Msg: "integer divide by zero", PC: m.rip}
	}
	a := m.Regs[x86.RAX]
	if signed {
		if int64(a) == math.MinInt64 && int64(d) == -1 {
			return &TrapError{Msg: "integer overflow", PC: m.rip}
		}
		m.Regs[x86.RAX] = uint64(int64(a) / int64(d))
		m.Regs[x86.RDX] = uint64(int64(a) % int64(d))
	} else {
		m.Regs[x86.RAX] = a / d
		m.Regs[x86.RDX] = a % d
	}
	return nil
}

// setUcomiFlags sets the flags of an unordered float compare.
func (m *Machine) setUcomiFlags(a, b float64) {
	f := &m.Flags
	f.OF, f.SF = false, false
	switch {
	case math.IsNaN(a) || math.IsNaN(b):
		f.ZF, f.CF, f.PF = true, true, true
	case a < b:
		f.ZF, f.CF, f.PF = false, true, false
	case a > b:
		f.ZF, f.CF, f.PF = false, false, false
	default:
		f.ZF, f.CF, f.PF = true, false, false
	}
}

// cvtIntToF64 converts an integer of width w (signed or unsigned) to f64.
func cvtIntToF64(v uint64, w uint8, uns bool) float64 {
	if uns {
		if w == 4 {
			return float64(uint32(v))
		}
		return float64(v)
	}
	if w == 4 {
		return float64(int32(uint32(v)))
	}
	return float64(int64(v))
}

// cvtF64ToInt truncates f to an integer of width w with wasm trap
// semantics, charging the conversion cost.
func (m *Machine) cvtF64ToInt(f float64, w uint8, uns bool) (uint64, error) {
	m.q(qCvt)
	if math.IsNaN(f) {
		return 0, &TrapError{Msg: "invalid conversion to integer", PC: m.rip}
	}
	t := math.Trunc(f)
	if uns {
		if w == 4 {
			if t < 0 || t > math.MaxUint32 {
				return 0, &TrapError{Msg: "integer overflow in conversion", PC: m.rip}
			}
			return uint64(uint32(t)), nil
		}
		if t < 0 || t >= math.MaxUint64 {
			return 0, &TrapError{Msg: "integer overflow in conversion", PC: m.rip}
		}
		return uint64(t), nil
	}
	if w == 4 {
		if t < math.MinInt32 || t > math.MaxInt32 {
			return 0, &TrapError{Msg: "integer overflow in conversion", PC: m.rip}
		}
		return uint64(uint32(int32(t))), nil
	}
	if t < math.MinInt64 || t >= math.MaxInt64 {
		return 0, &TrapError{Msg: "integer overflow in conversion", PC: m.rip}
	}
	return uint64(int64(t)), nil
}

// roundMode applies a roundsd rounding mode.
func roundMode(f float64, mode uint8) float64 {
	switch mode {
	case 0:
		return math.RoundToEven(f)
	case 1:
		return math.Floor(f)
	case 2:
		return math.Ceil(f)
	default:
		return math.Trunc(f)
	}
}

// branchTo redirects control and charges branch costs for the legacy
// interpreter. Branch counters are architectural and always move; the
// predictor (and its BranchMiss counter) is timing state, run only when
// timing is modeled or warmed, like the uop loop's, so the uSlow/legacy
// fallback stays usable from every tier.
func (m *Machine) branchTo(target int, conditional, taken bool, addr uint32) {
	m.Counters.Branches++
	m.q(qBranch)
	if conditional {
		m.Counters.CondBranches++
		if (!m.noTime || m.warm) && !m.BP.Predict(addr, taken) {
			m.Counters.BranchMiss++
			m.q(qMispred)
		}
	}
	if taken {
		m.rip = target
		m.lastLine = ^uint32(0) // force an i-cache probe at the target
	} else {
		m.rip++
	}
}
