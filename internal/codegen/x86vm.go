package codegen

import (
	"errors"
	"fmt"
	"math"

	"wasmbench/internal/ir"
)

// X86CostClass buckets x86 bytecode for cycle accounting.
type X86CostClass uint8

// Cost classes.
const (
	XCConst X86CostClass = iota
	XCMov
	XCAlu
	XCMul
	XCDiv
	XCFAlu
	XCFMul
	XCFDiv
	XCLoad
	XCStore
	XCBranch
	XCCall
	XCConv
	XCHost
	XCVec // SIMD-absorbed
	NumX86CostClasses
)

// X86CostTable holds per-class virtual-cycle costs.
type X86CostTable [NumX86CostClasses]float64

// DefaultX86Cost approximates a modern out-of-order x86 core (relative
// throughput costs).
func DefaultX86Cost() X86CostTable {
	var t X86CostTable
	t[XCConst] = 0.3
	t[XCMov] = 0.3
	t[XCAlu] = 1.0
	t[XCMul] = 3.0
	t[XCDiv] = 22.0
	t[XCFAlu] = 1.5
	t[XCFMul] = 2.0
	t[XCFDiv] = 13.0
	t[XCLoad] = 1.4
	t[XCStore] = 1.4
	t[XCBranch] = 1.2
	t[XCCall] = 9.0
	t[XCConv] = 1.5
	t[XCHost] = 30.0
	t[XCVec] = 0.4
	return t
}

func x86Class(in *X86Instr) X86CostClass {
	if in.Vec {
		return XCVec
	}
	switch in.Kind {
	case XConst:
		return XCConst
	case XMov, XFrameAddr, XSPAdd:
		return XCMov
	case XBin:
		if in.T.IsFloat() {
			switch in.BinOp {
			case ir.OpMul:
				return XCFMul
			case ir.OpDiv:
				return XCFDiv
			default:
				return XCFAlu
			}
		}
		switch in.BinOp {
		case ir.OpMul:
			return XCMul
		case ir.OpDiv, ir.OpRem:
			return XCDiv
		default:
			return XCAlu
		}
	case XUn:
		if in.T.IsFloat() {
			if in.UnOp == ir.OpSqrt {
				return XCFDiv
			}
			return XCFAlu
		}
		return XCAlu
	case XConv:
		return XCConv
	case XLoad:
		return XCLoad
	case XStore:
		return XCStore
	case XJmp, XJz, XJnz, XJmpTable, XRet:
		return XCBranch
	case XCall:
		return XCCall
	case XCallHost:
		return XCHost
	}
	return XCAlu
}

// X86Config parameterizes execution.
type X86Config struct {
	Cost       X86CostTable
	StepLimit  uint64
	DepthLimit int
	// MemLimit caps the linear buffer (StackTop + HeapLimit by default).
	MemLimit uint32
}

// DefaultX86Config returns the standard native configuration.
func DefaultX86Config() X86Config {
	return X86Config{Cost: DefaultX86Cost(), DepthLimit: 10000}
}

// OutputEvent is one print_* call captured from the program (the study's
// differential-testing channel across backends).
type OutputEvent struct {
	Kind string // "i", "f", or "s"
	I    int64
	F    float64
	S    string
}

func (o OutputEvent) String() string {
	switch o.Kind {
	case "i":
		return fmt.Sprintf("i:%d", o.I)
	case "f":
		return fmt.Sprintf("f:%g", o.F)
	default:
		return "s:" + o.S
	}
}

// X86VM executes x86-like bytecode with cycle accounting.
type X86VM struct {
	p   *X86Program
	cfg X86Config
	// costs holds each instruction's cycle charge, per function,
	// resolved from its cost class once at load.
	costs [][]float64
	// regs is the register-file stack: each activation takes its
	// function's NRegs slots from the top and pops them on return.
	regs      []uint64
	stepLimit uint64
	globals   []uint64
	mem       []byte
	memPeak   uint32
	cycles    float64
	steps     uint64
	depth     int
	Output    []OutputEvent
}

// Errors.
var (
	ErrX86StepLimit = errors.New("x86vm: step limit exceeded")
	ErrX86OOB       = errors.New("x86vm: out-of-bounds memory access")
	ErrX86OOM       = errors.New("x86vm: out of memory")
	ErrX86Depth     = errors.New("x86vm: call depth exceeded")
	ErrX86DivZero   = errors.New("x86vm: integer divide by zero")
	ErrX86Trap      = errors.New("x86vm: trap")
)

// NewX86VM instantiates the program: allocates memory (static + stack,
// growing toward the heap limit) and copies data segments.
func NewX86VM(p *X86Program, cfg X86Config) *X86VM {
	if cfg.DepthLimit == 0 {
		cfg.DepthLimit = 10000
	}
	if cfg.MemLimit == 0 {
		cfg.MemLimit = p.StackTop + p.HeapLimit
	}
	vm := &X86VM{p: p, cfg: cfg, stepLimit: cfg.StepLimit}
	if vm.stepLimit == 0 {
		vm.stepLimit = math.MaxUint64
	}
	vm.costs = make([][]float64, len(p.Funcs))
	for i, f := range p.Funcs {
		vm.costs[i] = make([]float64, len(f.Code))
		for pc := range f.Code {
			vm.costs[i][pc] = cfg.Cost[x86Class(&f.Code[pc])]
		}
	}
	vm.globals = append([]uint64(nil), p.Globals...)
	vm.mem = make([]byte, p.StackTop)
	vm.memPeak = p.StackTop
	for _, d := range p.Data {
		copy(vm.mem[d.Addr:], d.Bytes)
	}
	return vm
}

// Cycles returns accumulated virtual cycles.
func (vm *X86VM) Cycles() float64 { return vm.cycles }

// Steps returns the dynamic instruction count.
func (vm *X86VM) Steps() uint64 { return vm.steps }

// PeakMemoryBytes reports the linear-buffer high-water mark.
func (vm *X86VM) PeakMemoryBytes() uint64 { return uint64(vm.memPeak) }

// Memory returns the live linear buffer (the differential oracle
// checksums it after a run; callers must not retain it across Run calls).
func (vm *X86VM) Memory() []byte { return vm.mem }

// Run executes main and returns its value.
func (vm *X86VM) Run() (uint64, error) {
	return vm.call(vm.p.MainFunc, nil)
}

// Call executes a function by index.
func (vm *X86VM) Call(idx int, args []uint64) (uint64, error) {
	return vm.call(idx, args)
}

func (vm *X86VM) call(idx int, args []uint64) (uint64, error) {
	base := len(vm.regs)
	regs := vm.pushFrame(idx)
	copy(regs, args)
	v, err := vm.exec(idx, regs)
	vm.regs = vm.regs[:base]
	return v, err
}

// pushFrame takes a zeroed register file for function idx from the top of
// the register stack; the caller pops back to the previous height.
func (vm *X86VM) pushFrame(idx int) []uint64 {
	n := vm.p.Funcs[idx].NRegs
	base := len(vm.regs)
	if cap(vm.regs)-base < n {
		grown := make([]uint64, base, 2*cap(vm.regs)+n)
		copy(grown, vm.regs)
		vm.regs = grown
	}
	vm.regs = vm.regs[:base+n]
	regs := vm.regs[base : base+n : base+n]
	clear(regs)
	return regs
}

// exec runs one activation of function idx over its register file.
func (vm *X86VM) exec(idx int, regs []uint64) (uint64, error) {
	if vm.depth >= vm.cfg.DepthLimit {
		return 0, ErrX86Depth
	}
	vm.depth++
	v, err := vm.run(idx, regs)
	vm.depth--
	return v, err
}

func (vm *X86VM) run(idx int, regs []uint64) (uint64, error) {
	f := vm.p.Funcs[idx]
	var result uint64

	costs := vm.costs[idx]
	code := f.Code
	pc := 0
	for pc < len(code) {
		in := &code[pc]
		vm.cycles += costs[pc]
		vm.steps++
		if vm.steps > vm.stepLimit {
			return 0, ErrX86StepLimit
		}
		switch in.Kind {
		case XConst:
			regs[in.Dst] = uint64(in.Imm)
		case XMov:
			v := vm.read(regs, &result, in.A)
			vm.write(regs, &result, in.Dst, v)
		case XFrameAddr:
			regs[in.Dst] = uint64(uint32(vm.globals[vm.p.SP]) + uint32(in.Imm))
		case XSPAdd:
			vm.globals[vm.p.SP] = uint64(uint32(vm.globals[vm.p.SP]) + uint32(int32(in.Imm)))
		case XBin:
			a := vm.read(regs, &result, in.A)
			b := vm.read(regs, &result, in.B)
			v, err := evalBin(in, a, b)
			if err != nil {
				return 0, err
			}
			regs[in.Dst] = v
		case XUn:
			a := vm.read(regs, &result, in.A)
			regs[in.Dst] = evalUn(in, a)
		case XConv:
			a := vm.read(regs, &result, in.A)
			v, err := evalConv(in, a)
			if err != nil {
				return 0, err
			}
			regs[in.Dst] = v
		case XLoad:
			a := uint32(vm.read(regs, &result, in.A))
			v, err := vm.load(a, in.Mem)
			if err != nil {
				return 0, err
			}
			regs[in.Dst] = v
		case XStore:
			a := uint32(vm.read(regs, &result, in.A))
			v := vm.read(regs, &result, in.B)
			if err := vm.store(a, in.Mem, v); err != nil {
				return 0, err
			}
		case XJmp:
			pc = int(in.Target)
			continue
		case XJz:
			if uint32(vm.read(regs, &result, in.A)) == 0 {
				pc = int(in.Target)
				continue
			}
		case XJnz:
			if uint32(vm.read(regs, &result, in.A)) != 0 {
				pc = int(in.Target)
				continue
			}
		case XJmpTable:
			idx := int32(uint32(vm.read(regs, &result, in.A)))
			if idx >= 0 && int(idx) < len(in.Table) {
				pc = int(in.Table[idx])
			} else {
				pc = int(in.Target)
			}
			continue
		case XCall:
			base := len(vm.regs)
			callee := vm.pushFrame(int(in.Imm))
			for i, r := range in.Args[:min(len(in.Args), len(callee))] {
				callee[i] = vm.read(regs, &result, r)
			}
			v, err := vm.exec(int(in.Imm), callee)
			vm.regs = vm.regs[:base]
			if err != nil {
				return 0, err
			}
			regs[in.Dst] = v
		case XCallHost:
			v, err := vm.callHost(in, regs, &result)
			if err != nil {
				return 0, err
			}
			regs[in.Dst] = v
		case XRet:
			if in.A == resultReg {
				return result, nil
			}
			if in.A >= 0 {
				return regs[in.A], nil
			}
			return 0, nil
		}
		pc++
	}
	return result, nil
}

func (vm *X86VM) read(regs []uint64, result *uint64, r int32) uint64 {
	switch {
	case r >= 0:
		return regs[r]
	case r == resultReg:
		return *result
	default:
		return vm.globals[-2-r]
	}
}

func (vm *X86VM) write(regs []uint64, result *uint64, r int32, v uint64) {
	switch {
	case r >= 0:
		regs[r] = v
	case r == resultReg:
		*result = v
	default:
		vm.globals[-2-r] = v
	}
}

func (vm *X86VM) ensure(addr uint32, size int) error {
	end := uint64(addr) + uint64(size)
	if end > uint64(len(vm.mem)) {
		if end > uint64(vm.cfg.MemLimit) {
			return fmt.Errorf("%w: access at %d", ErrX86OOB, addr)
		}
		grown := make([]byte, vm.cfg.MemLimit)
		copy(grown, vm.mem)
		vm.mem = grown
		vm.memPeak = vm.cfg.MemLimit
	}
	return nil
}

func (vm *X86VM) load(addr uint32, m ir.MemType) (uint64, error) {
	if err := vm.ensure(addr, m.Size()); err != nil {
		return 0, err
	}
	b := vm.mem[addr:]
	switch m {
	case ir.MemI8U:
		return uint64(b[0]), nil
	case ir.MemI8S:
		return uint64(uint32(int32(int8(b[0])))), nil
	case ir.MemI16U:
		return uint64(le16(b)), nil
	case ir.MemI16S:
		return uint64(uint32(int32(int16(le16(b))))), nil
	case ir.MemI32, ir.MemF32:
		return uint64(le32(b)), nil
	default:
		return le64(b), nil
	}
}

func (vm *X86VM) store(addr uint32, m ir.MemType, v uint64) error {
	if err := vm.ensure(addr, m.Size()); err != nil {
		return err
	}
	b := vm.mem[addr:]
	switch m {
	case ir.MemI8U, ir.MemI8S:
		b[0] = byte(v)
	case ir.MemI16U, ir.MemI16S:
		b[0], b[1] = byte(v), byte(v>>8)
	case ir.MemI32, ir.MemF32:
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	default:
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
	}
	return nil
}

func le16(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }
func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
func le64(b []byte) uint64 { return uint64(le32(b)) | uint64(le32(b[4:]))<<32 }

func (vm *X86VM) callHost(in *X86Instr, regs []uint64, result *uint64) (uint64, error) {
	arg := func(i int) uint64 { return vm.read(regs, result, in.Args[i]) }
	switch in.Host {
	case "print_i":
		vm.Output = append(vm.Output, OutputEvent{Kind: "i", I: int64(arg(0))})
		return 0, nil
	case "print_f":
		vm.Output = append(vm.Output, OutputEvent{Kind: "f", F: math.Float64frombits(arg(0))})
		return 0, nil
	case "print_s":
		addr := uint32(arg(0))
		s := vm.readCString(addr)
		vm.Output = append(vm.Output, OutputEvent{Kind: "s", S: s})
		return 0, nil
	case "sin":
		return math.Float64bits(math.Sin(math.Float64frombits(arg(0)))), nil
	case "cos":
		return math.Float64bits(math.Cos(math.Float64frombits(arg(0)))), nil
	case "exp":
		return math.Float64bits(math.Exp(math.Float64frombits(arg(0)))), nil
	case "log":
		return math.Float64bits(math.Log(math.Float64frombits(arg(0)))), nil
	case "pow":
		return math.Float64bits(math.Pow(math.Float64frombits(arg(0)), math.Float64frombits(arg(1)))), nil
	case "fmod":
		return math.Float64bits(math.Mod(math.Float64frombits(arg(0)), math.Float64frombits(arg(1)))), nil
	case "memsize":
		return uint64(len(vm.mem) / 65536), nil
	case "memgrow":
		pages := uint32(arg(0))
		old := uint32(len(vm.mem) / 65536)
		newLen := uint64(len(vm.mem)) + uint64(pages)*65536
		if newLen > uint64(vm.cfg.MemLimit) {
			return uint64(uint32(0xFFFFFFFF)), nil // -1
		}
		grown := make([]byte, newLen)
		copy(grown, vm.mem)
		vm.mem = grown
		if uint32(newLen) > vm.memPeak {
			vm.memPeak = uint32(newLen)
		}
		return uint64(old), nil
	case "heapbase":
		return uint64(vm.p.StackTop), nil
	case "heaplimit":
		return uint64(vm.p.StackTop + vm.p.HeapLimit), nil
	case "trap":
		return 0, ErrX86Trap
	}
	return 0, fmt.Errorf("x86vm: unknown host function %q", in.Host)
}

func (vm *X86VM) readCString(addr uint32) string {
	var out []byte
	for int(addr) < len(vm.mem) && vm.mem[addr] != 0 {
		out = append(out, vm.mem[addr])
		addr++
	}
	return string(out)
}

func evalBin(in *X86Instr, a, b uint64) (uint64, error) {
	switch in.T {
	case ir.I32:
		x, y := uint32(a), uint32(b)
		xs, ys := int32(x), int32(y)
		switch in.BinOp {
		case ir.OpAdd:
			return u32(x + y), nil
		case ir.OpSub:
			return u32(x - y), nil
		case ir.OpMul:
			return u32(x * y), nil
		case ir.OpDiv:
			if y == 0 {
				return 0, ErrX86DivZero
			}
			if in.Unsigned {
				return u32(x / y), nil
			}
			if xs == math.MinInt32 && ys == -1 {
				return 0, ErrX86Trap
			}
			return u32(uint32(xs / ys)), nil
		case ir.OpRem:
			if y == 0 {
				return 0, ErrX86DivZero
			}
			if in.Unsigned {
				return u32(x % y), nil
			}
			if xs == math.MinInt32 && ys == -1 {
				return 0, nil
			}
			return u32(uint32(xs % ys)), nil
		case ir.OpAnd:
			return u32(x & y), nil
		case ir.OpOr:
			return u32(x | y), nil
		case ir.OpXor:
			return u32(x ^ y), nil
		case ir.OpShl:
			return u32(x << (y & 31)), nil
		case ir.OpShr:
			if in.Unsigned {
				return u32(x >> (y & 31)), nil
			}
			return u32(uint32(xs >> (y & 31))), nil
		default:
			return evalCmp(in, uint64(x), uint64(y), int64(xs), int64(ys))
		}
	case ir.I64:
		xs, ys := int64(a), int64(b)
		switch in.BinOp {
		case ir.OpAdd:
			return a + b, nil
		case ir.OpSub:
			return a - b, nil
		case ir.OpMul:
			return a * b, nil
		case ir.OpDiv:
			if b == 0 {
				return 0, ErrX86DivZero
			}
			if in.Unsigned {
				return a / b, nil
			}
			if xs == math.MinInt64 && ys == -1 {
				return 0, ErrX86Trap
			}
			return uint64(xs / ys), nil
		case ir.OpRem:
			if b == 0 {
				return 0, ErrX86DivZero
			}
			if in.Unsigned {
				return a % b, nil
			}
			if xs == math.MinInt64 && ys == -1 {
				return 0, nil
			}
			return uint64(xs % ys), nil
		case ir.OpAnd:
			return a & b, nil
		case ir.OpOr:
			return a | b, nil
		case ir.OpXor:
			return a ^ b, nil
		case ir.OpShl:
			return a << (b & 63), nil
		case ir.OpShr:
			if in.Unsigned {
				return a >> (b & 63), nil
			}
			return uint64(xs >> (b & 63)), nil
		default:
			return evalCmp(in, a, b, xs, ys)
		}
	case ir.F32:
		x := math.Float32frombits(uint32(a))
		y := math.Float32frombits(uint32(b))
		switch in.BinOp {
		case ir.OpAdd:
			return uint64(math.Float32bits(x + y)), nil
		case ir.OpSub:
			return uint64(math.Float32bits(x - y)), nil
		case ir.OpMul:
			return uint64(math.Float32bits(x * y)), nil
		case ir.OpDiv:
			return uint64(math.Float32bits(x / y)), nil
		case ir.OpMin:
			return uint64(math.Float32bits(float32(math.Min(float64(x), float64(y))))), nil
		case ir.OpMax:
			return uint64(math.Float32bits(float32(math.Max(float64(x), float64(y))))), nil
		default:
			return fcmp(in.BinOp, float64(x), float64(y))
		}
	case ir.F64:
		x := math.Float64frombits(a)
		y := math.Float64frombits(b)
		switch in.BinOp {
		case ir.OpAdd:
			return math.Float64bits(x + y), nil
		case ir.OpSub:
			return math.Float64bits(x - y), nil
		case ir.OpMul:
			return math.Float64bits(x * y), nil
		case ir.OpDiv:
			return math.Float64bits(x / y), nil
		case ir.OpMin:
			return math.Float64bits(math.Min(x, y)), nil
		case ir.OpMax:
			return math.Float64bits(math.Max(x, y)), nil
		default:
			return fcmp(in.BinOp, x, y)
		}
	}
	return 0, fmt.Errorf("x86vm: bad bin type %v", in.T)
}

func u32(v uint32) uint64 { return uint64(v) }

func evalCmp(in *X86Instr, a, b uint64, as, bs int64) (uint64, error) {
	var c bool
	if in.Unsigned {
		switch in.BinOp {
		case ir.OpEq:
			c = a == b
		case ir.OpNe:
			c = a != b
		case ir.OpLt:
			c = a < b
		case ir.OpLe:
			c = a <= b
		case ir.OpGt:
			c = a > b
		case ir.OpGe:
			c = a >= b
		default:
			return 0, fmt.Errorf("x86vm: bad int op %v", in.BinOp)
		}
	} else {
		switch in.BinOp {
		case ir.OpEq:
			c = as == bs
		case ir.OpNe:
			c = as != bs
		case ir.OpLt:
			c = as < bs
		case ir.OpLe:
			c = as <= bs
		case ir.OpGt:
			c = as > bs
		case ir.OpGe:
			c = as >= bs
		default:
			return 0, fmt.Errorf("x86vm: bad int op %v", in.BinOp)
		}
	}
	if c {
		return 1, nil
	}
	return 0, nil
}

func fcmp(op ir.BinOp, x, y float64) (uint64, error) {
	var c bool
	switch op {
	case ir.OpEq:
		c = x == y
	case ir.OpNe:
		c = x != y
	case ir.OpLt:
		c = x < y
	case ir.OpLe:
		c = x <= y
	case ir.OpGt:
		c = x > y
	case ir.OpGe:
		c = x >= y
	default:
		return 0, fmt.Errorf("x86vm: bad float op %v", op)
	}
	if c {
		return 1, nil
	}
	return 0, nil
}

func evalUn(in *X86Instr, a uint64) uint64 {
	switch in.T {
	case ir.I32:
		switch in.UnOp {
		case ir.OpNeg:
			return u32(-uint32(a))
		case ir.OpEqz:
			if uint32(a) == 0 {
				return 1
			}
			return 0
		case ir.OpBitNot:
			return u32(^uint32(a))
		}
	case ir.I64:
		switch in.UnOp {
		case ir.OpNeg:
			return -a
		case ir.OpEqz:
			if a == 0 {
				return 1
			}
			return 0
		case ir.OpBitNot:
			return ^a
		}
	case ir.F32:
		f := math.Float32frombits(uint32(a))
		switch in.UnOp {
		case ir.OpNeg:
			return uint64(math.Float32bits(-f))
		case ir.OpAbs:
			return uint64(math.Float32bits(float32(math.Abs(float64(f)))))
		case ir.OpSqrt:
			return uint64(math.Float32bits(float32(math.Sqrt(float64(f)))))
		case ir.OpFloor:
			return uint64(math.Float32bits(float32(math.Floor(float64(f)))))
		case ir.OpCeil:
			return uint64(math.Float32bits(float32(math.Ceil(float64(f)))))
		case ir.OpTrunc:
			return uint64(math.Float32bits(float32(math.Trunc(float64(f)))))
		}
	case ir.F64:
		f := math.Float64frombits(a)
		switch in.UnOp {
		case ir.OpNeg:
			return math.Float64bits(-f)
		case ir.OpAbs:
			return math.Float64bits(math.Abs(f))
		case ir.OpSqrt:
			return math.Float64bits(math.Sqrt(f))
		case ir.OpFloor:
			return math.Float64bits(math.Floor(f))
		case ir.OpCeil:
			return math.Float64bits(math.Ceil(f))
		case ir.OpTrunc:
			return math.Float64bits(math.Trunc(f))
		}
	}
	return 0
}

func evalConv(in *X86Instr, a uint64) (uint64, error) {
	from := in.T
	to := ir.Type(in.Imm)
	signed := !in.Unsigned
	var v uint64
	switch {
	case from == ir.I32 && to == ir.I32:
		v = a
	case from == ir.I32 && to == ir.I64:
		if signed {
			v = uint64(int64(int32(uint32(a))))
		} else {
			v = uint64(uint32(a))
		}
	case from == ir.I64 && to == ir.I32:
		v = u32(uint32(a))
	case from == ir.I32 && to == ir.F32:
		if signed {
			v = uint64(math.Float32bits(float32(int32(uint32(a)))))
		} else {
			v = uint64(math.Float32bits(float32(uint32(a))))
		}
	case from == ir.I32 && to == ir.F64:
		if signed {
			v = math.Float64bits(float64(int32(uint32(a))))
		} else {
			v = math.Float64bits(float64(uint32(a)))
		}
	case from == ir.I64 && to == ir.F32:
		if signed {
			v = uint64(math.Float32bits(float32(int64(a))))
		} else {
			v = uint64(math.Float32bits(float32(a)))
		}
	case from == ir.I64 && to == ir.F64:
		if signed {
			v = math.Float64bits(float64(int64(a)))
		} else {
			v = math.Float64bits(float64(a))
		}
	case from == ir.F32 && to == ir.I32:
		f := float64(math.Float32frombits(uint32(a)))
		if math.IsNaN(f) || f >= 2147483648 || f < -2147483649 {
			return 0, ErrX86Trap
		}
		if signed {
			v = u32(uint32(int32(f)))
		} else {
			if f <= -1 || f >= 4294967296 {
				return 0, ErrX86Trap
			}
			v = u32(uint32(f))
		}
	case from == ir.F64 && to == ir.I32:
		f := math.Float64frombits(a)
		if math.IsNaN(f) || f >= 4294967296 || f < -2147483649 {
			return 0, ErrX86Trap
		}
		if signed {
			if f >= 2147483648 {
				return 0, ErrX86Trap
			}
			v = u32(uint32(int32(f)))
		} else {
			if f <= -1 {
				return 0, ErrX86Trap
			}
			v = u32(uint32(f))
		}
	case from == ir.F32 && to == ir.I64:
		f := float64(math.Float32frombits(uint32(a)))
		if math.IsNaN(f) {
			return 0, ErrX86Trap
		}
		if signed {
			v = uint64(int64(f))
		} else {
			v = uint64(f)
		}
	case from == ir.F64 && to == ir.I64:
		f := math.Float64frombits(a)
		if math.IsNaN(f) {
			return 0, ErrX86Trap
		}
		if signed {
			v = uint64(int64(f))
		} else {
			v = uint64(f)
		}
	case from == ir.F32 && to == ir.F64:
		v = math.Float64bits(float64(math.Float32frombits(uint32(a))))
	case from == ir.F64 && to == ir.F32:
		v = uint64(math.Float32bits(float32(math.Float64frombits(a))))
	default:
		return 0, fmt.Errorf("x86vm: bad conversion %v->%v", from, to)
	}
	if in.Narrow != 0 && to == ir.I32 {
		x := uint32(v)
		if in.Narrow == 8 {
			if in.NSigned {
				x = uint32(int32(int8(x)))
			} else {
				x = uint32(uint8(x))
			}
		} else {
			if in.NSigned {
				x = uint32(int32(int16(x)))
			} else {
				x = uint32(uint16(x))
			}
		}
		v = u32(x)
	}
	return v, nil
}
