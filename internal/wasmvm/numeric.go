package wasmvm

import (
	"fmt"
	"math"
	"math/bits"

	"wasmbench/internal/wasm"
)

// Pure opcode evaluators shared by the stack interpreter (exec.go) and the
// AOT superblock closures (aot.go). Keeping the value semantics in one
// place is what lets the two dispatchers stay byte-identical on every
// metric: they differ only in where operands live, never in what an opcode
// does.

func b2i(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// numUnary evaluates a unary numeric or conversion opcode.
func numUnary(op wasm.Opcode, x uint64) (uint64, error) {
	switch op {
	case wasm.OpI32Eqz:
		return b2i(uint32(x) == 0), nil
	case wasm.OpI64Eqz:
		return b2i(x == 0), nil
	case wasm.OpI32Clz:
		return uint64(bits.LeadingZeros32(uint32(x))), nil
	case wasm.OpI32Ctz:
		return uint64(bits.TrailingZeros32(uint32(x))), nil
	case wasm.OpI32Popcnt:
		return uint64(bits.OnesCount32(uint32(x))), nil
	case wasm.OpI64Clz:
		return uint64(bits.LeadingZeros64(x)), nil
	case wasm.OpI64Ctz:
		return uint64(bits.TrailingZeros64(x)), nil
	case wasm.OpI64Popcnt:
		return popcnt64(x), nil
	case wasm.OpF32Abs:
		return F32(float32(math.Abs(float64(AsF32(x))))), nil
	case wasm.OpF32Neg:
		return F32(-AsF32(x)), nil
	case wasm.OpF32Ceil:
		return F32(float32(math.Ceil(float64(AsF32(x))))), nil
	case wasm.OpF32Floor:
		return F32(float32(math.Floor(float64(AsF32(x))))), nil
	case wasm.OpF32Trunc:
		return F32(float32(math.Trunc(float64(AsF32(x))))), nil
	case wasm.OpF32Nearest:
		return F32(float32(math.RoundToEven(float64(AsF32(x))))), nil
	case wasm.OpF32Sqrt:
		return F32(float32(math.Sqrt(float64(AsF32(x))))), nil
	case wasm.OpF64Abs:
		return F64(math.Abs(AsF64(x))), nil
	case wasm.OpF64Neg:
		return F64(-AsF64(x)), nil
	case wasm.OpF64Ceil:
		return F64(math.Ceil(AsF64(x))), nil
	case wasm.OpF64Floor:
		return F64(math.Floor(AsF64(x))), nil
	case wasm.OpF64Trunc:
		return F64(math.Trunc(AsF64(x))), nil
	case wasm.OpF64Nearest:
		return F64(math.RoundToEven(AsF64(x))), nil
	case wasm.OpF64Sqrt:
		return F64(math.Sqrt(AsF64(x))), nil
	default:
		return execConv(op, x)
	}
}

// numBinary evaluates a binary numeric opcode on x (deeper operand) and y.
func numBinary(op wasm.Opcode, x, y uint64) (uint64, error) {
	switch op {
	case wasm.OpI32Eq:
		return b2i(uint32(x) == uint32(y)), nil
	case wasm.OpI32Ne:
		return b2i(uint32(x) != uint32(y)), nil
	case wasm.OpI32LtS:
		return b2i(int32(x) < int32(y)), nil
	case wasm.OpI32LtU:
		return b2i(uint32(x) < uint32(y)), nil
	case wasm.OpI32GtS:
		return b2i(int32(x) > int32(y)), nil
	case wasm.OpI32GtU:
		return b2i(uint32(x) > uint32(y)), nil
	case wasm.OpI32LeS:
		return b2i(int32(x) <= int32(y)), nil
	case wasm.OpI32LeU:
		return b2i(uint32(x) <= uint32(y)), nil
	case wasm.OpI32GeS:
		return b2i(int32(x) >= int32(y)), nil
	case wasm.OpI32GeU:
		return b2i(uint32(x) >= uint32(y)), nil
	case wasm.OpI64Eq:
		return b2i(x == y), nil
	case wasm.OpI64Ne:
		return b2i(x != y), nil
	case wasm.OpI64LtS:
		return b2i(int64(x) < int64(y)), nil
	case wasm.OpI64LtU:
		return b2i(x < y), nil
	case wasm.OpI64GtS:
		return b2i(int64(x) > int64(y)), nil
	case wasm.OpI64GtU:
		return b2i(x > y), nil
	case wasm.OpI64LeS:
		return b2i(int64(x) <= int64(y)), nil
	case wasm.OpI64LeU:
		return b2i(x <= y), nil
	case wasm.OpI64GeS:
		return b2i(int64(x) >= int64(y)), nil
	case wasm.OpI64GeU:
		return b2i(x >= y), nil
	case wasm.OpF32Eq:
		return b2i(AsF32(x) == AsF32(y)), nil
	case wasm.OpF32Ne:
		return b2i(AsF32(x) != AsF32(y)), nil
	case wasm.OpF32Lt:
		return b2i(AsF32(x) < AsF32(y)), nil
	case wasm.OpF32Gt:
		return b2i(AsF32(x) > AsF32(y)), nil
	case wasm.OpF32Le:
		return b2i(AsF32(x) <= AsF32(y)), nil
	case wasm.OpF32Ge:
		return b2i(AsF32(x) >= AsF32(y)), nil
	case wasm.OpF64Eq:
		return b2i(AsF64(x) == AsF64(y)), nil
	case wasm.OpF64Ne:
		return b2i(AsF64(x) != AsF64(y)), nil
	case wasm.OpF64Lt:
		return b2i(AsF64(x) < AsF64(y)), nil
	case wasm.OpF64Gt:
		return b2i(AsF64(x) > AsF64(y)), nil
	case wasm.OpF64Le:
		return b2i(AsF64(x) <= AsF64(y)), nil
	case wasm.OpF64Ge:
		return b2i(AsF64(x) >= AsF64(y)), nil

	case wasm.OpI32Add:
		return uint64(uint32(x) + uint32(y)), nil
	case wasm.OpI32Sub:
		return uint64(uint32(x) - uint32(y)), nil
	case wasm.OpI32Mul:
		return uint64(uint32(x) * uint32(y)), nil
	case wasm.OpI32DivS:
		if uint32(y) == 0 {
			return 0, ErrDivByZero
		}
		if int32(x) == math.MinInt32 && int32(y) == -1 {
			return 0, ErrIntOverflow
		}
		return uint64(uint32(int32(x) / int32(y))), nil
	case wasm.OpI32DivU:
		if uint32(y) == 0 {
			return 0, ErrDivByZero
		}
		return uint64(uint32(x) / uint32(y)), nil
	case wasm.OpI32RemS:
		if uint32(y) == 0 {
			return 0, ErrDivByZero
		}
		if int32(x) == math.MinInt32 && int32(y) == -1 {
			return 0, nil
		}
		return uint64(uint32(int32(x) % int32(y))), nil
	case wasm.OpI32RemU:
		if uint32(y) == 0 {
			return 0, ErrDivByZero
		}
		return uint64(uint32(x) % uint32(y)), nil
	case wasm.OpI32And:
		return uint64(uint32(x) & uint32(y)), nil
	case wasm.OpI32Or:
		return uint64(uint32(x) | uint32(y)), nil
	case wasm.OpI32Xor:
		return uint64(uint32(x) ^ uint32(y)), nil
	case wasm.OpI32Shl:
		return uint64(uint32(x) << (uint32(y) & 31)), nil
	case wasm.OpI32ShrS:
		return uint64(uint32(int32(x) >> (uint32(y) & 31))), nil
	case wasm.OpI32ShrU:
		return uint64(uint32(x) >> (uint32(y) & 31)), nil
	case wasm.OpI32Rotl:
		return uint64(bits.RotateLeft32(uint32(x), int(uint32(y)&31))), nil
	case wasm.OpI32Rotr:
		return uint64(bits.RotateLeft32(uint32(x), -int(uint32(y)&31))), nil

	case wasm.OpI64Add:
		return x + y, nil
	case wasm.OpI64Sub:
		return x - y, nil
	case wasm.OpI64Mul:
		return x * y, nil
	case wasm.OpI64DivS:
		if y == 0 {
			return 0, ErrDivByZero
		}
		if int64(x) == math.MinInt64 && int64(y) == -1 {
			return 0, ErrIntOverflow
		}
		return uint64(int64(x) / int64(y)), nil
	case wasm.OpI64DivU:
		if y == 0 {
			return 0, ErrDivByZero
		}
		return x / y, nil
	case wasm.OpI64RemS:
		if y == 0 {
			return 0, ErrDivByZero
		}
		if int64(x) == math.MinInt64 && int64(y) == -1 {
			return 0, nil
		}
		return uint64(int64(x) % int64(y)), nil
	case wasm.OpI64RemU:
		if y == 0 {
			return 0, ErrDivByZero
		}
		return x % y, nil
	case wasm.OpI64And:
		return x & y, nil
	case wasm.OpI64Or:
		return x | y, nil
	case wasm.OpI64Xor:
		return x ^ y, nil
	case wasm.OpI64Shl:
		return x << (y & 63), nil
	case wasm.OpI64ShrS:
		return uint64(int64(x) >> (y & 63)), nil
	case wasm.OpI64ShrU:
		return x >> (y & 63), nil
	case wasm.OpI64Rotl:
		return bits.RotateLeft64(x, int(y&63)), nil
	case wasm.OpI64Rotr:
		return bits.RotateLeft64(x, -int(y&63)), nil

	case wasm.OpF32Add:
		return F32(AsF32(x) + AsF32(y)), nil
	case wasm.OpF32Sub:
		return F32(AsF32(x) - AsF32(y)), nil
	case wasm.OpF32Mul:
		return F32(AsF32(x) * AsF32(y)), nil
	case wasm.OpF32Div:
		return F32(AsF32(x) / AsF32(y)), nil
	case wasm.OpF32Min:
		return F32(wasmFMin32(AsF32(x), AsF32(y))), nil
	case wasm.OpF32Max:
		return F32(wasmFMax32(AsF32(x), AsF32(y))), nil
	case wasm.OpF32Copysign:
		return F32(float32(math.Copysign(float64(AsF32(x)), float64(AsF32(y))))), nil
	case wasm.OpF64Add:
		return F64(AsF64(x) + AsF64(y)), nil
	case wasm.OpF64Sub:
		return F64(AsF64(x) - AsF64(y)), nil
	case wasm.OpF64Mul:
		return F64(AsF64(x) * AsF64(y)), nil
	case wasm.OpF64Div:
		return F64(AsF64(x) / AsF64(y)), nil
	case wasm.OpF64Min:
		return F64(wasmFMin64(AsF64(x), AsF64(y))), nil
	case wasm.OpF64Max:
		return F64(wasmFMax64(AsF64(x), AsF64(y))), nil
	case wasm.OpF64Copysign:
		return F64(math.Copysign(AsF64(x), AsF64(y))), nil
	}
	return 0, fmt.Errorf("wasmvm: unhandled opcode %v", op)
}

// memLoad evaluates a load opcode at an absolute address. An access past
// the committed prefix commits it and runs once more (Memory.commit).
func memLoad(mem *Memory, op wasm.Opcode, addr uint64) (uint64, error) {
	var v uint64
	var err error
	switch op {
	case wasm.OpI32Load, wasm.OpF32Load:
		v, err = mem.loadU32(addr)
	case wasm.OpI64Load, wasm.OpF64Load:
		v, err = mem.loadU64(addr)
	case wasm.OpI32Load8U:
		v, err = mem.loadU8(addr)
	case wasm.OpI32Load8S:
		v, err = mem.loadU8(addr)
		v = uint64(uint32(int32(int8(v))))
	case wasm.OpI32Load16U:
		v, err = mem.loadU16(addr)
	case wasm.OpI32Load16S:
		v, err = mem.loadU16(addr)
		v = uint64(uint32(int32(int16(v))))
	case wasm.OpI64Load8U:
		v, err = mem.loadU8(addr)
	case wasm.OpI64Load8S:
		v, err = mem.loadU8(addr)
		v = uint64(int64(int8(v)))
	case wasm.OpI64Load16U:
		v, err = mem.loadU16(addr)
	case wasm.OpI64Load16S:
		v, err = mem.loadU16(addr)
		v = uint64(int64(int16(v)))
	case wasm.OpI64Load32U:
		v, err = mem.loadU32(addr)
	case wasm.OpI64Load32S:
		v, err = mem.loadU32(addr)
		v = uint64(int64(int32(v)))
	default:
		return 0, fmt.Errorf("wasmvm: bad load op %v", op)
	}
	if err != nil {
		if err = mem.commit(err); err != nil {
			return 0, err
		}
		return memLoad(mem, op, addr)
	}
	return v, nil
}

// memStore evaluates a store opcode at an absolute address, committing
// like memLoad.
func memStore(mem *Memory, op wasm.Opcode, addr, v uint64) error {
	var err error
	switch op {
	case wasm.OpI32Store, wasm.OpF32Store:
		err = mem.storeU32(addr, v)
	case wasm.OpI64Store, wasm.OpF64Store:
		err = mem.storeU64(addr, v)
	case wasm.OpI32Store8, wasm.OpI64Store8:
		err = mem.storeU8(addr, v)
	case wasm.OpI32Store16, wasm.OpI64Store16:
		err = mem.storeU16(addr, v)
	case wasm.OpI64Store32:
		err = mem.storeU32(addr, v)
	default:
		return fmt.Errorf("wasmvm: bad store op %v", op)
	}
	if err != nil {
		if err = mem.commit(err); err != nil {
			return err
		}
		return memStore(mem, op, addr, v)
	}
	return nil
}

// execConv handles conversion opcodes (all unary).
func execConv(op wasm.Opcode, x uint64) (uint64, error) {
	switch op {
	case wasm.OpI32WrapI64:
		return uint64(uint32(x)), nil
	case wasm.OpI32TruncF32S:
		f := float64(AsF32(x))
		if math.IsNaN(f) || f >= 2147483648 || f < -2147483648 {
			return 0, ErrTruncInvalid
		}
		return uint64(uint32(int32(f))), nil
	case wasm.OpI32TruncF32U:
		f := float64(AsF32(x))
		if math.IsNaN(f) || f >= 4294967296 || f <= -1 {
			return 0, ErrTruncInvalid
		}
		return uint64(uint32(f)), nil
	case wasm.OpI32TruncF64S:
		f := AsF64(x)
		if math.IsNaN(f) || f >= 2147483648 || f < -2147483649 {
			return 0, ErrTruncInvalid
		}
		return uint64(uint32(int32(f))), nil
	case wasm.OpI32TruncF64U:
		f := AsF64(x)
		if math.IsNaN(f) || f >= 4294967296 || f <= -1 {
			return 0, ErrTruncInvalid
		}
		return uint64(uint32(f)), nil
	case wasm.OpI64ExtendI32S:
		return uint64(int64(int32(x))), nil
	case wasm.OpI64ExtendI32U:
		return uint64(uint32(x)), nil
	case wasm.OpI64TruncF32S:
		f := float64(AsF32(x))
		if math.IsNaN(f) || f >= 9.223372036854776e18 || f < -9.223372036854776e18 {
			return 0, ErrTruncInvalid
		}
		return uint64(int64(f)), nil
	case wasm.OpI64TruncF32U:
		f := float64(AsF32(x))
		if math.IsNaN(f) || f >= 1.8446744073709552e19 || f <= -1 {
			return 0, ErrTruncInvalid
		}
		return uint64(f), nil
	case wasm.OpI64TruncF64S:
		f := AsF64(x)
		if math.IsNaN(f) || f >= 9.223372036854776e18 || f < -9.223372036854776e18 {
			return 0, ErrTruncInvalid
		}
		return uint64(int64(f)), nil
	case wasm.OpI64TruncF64U:
		f := AsF64(x)
		if math.IsNaN(f) || f >= 1.8446744073709552e19 || f <= -1 {
			return 0, ErrTruncInvalid
		}
		return uint64(f), nil
	case wasm.OpF32ConvertI32S:
		return F32(float32(int32(x))), nil
	case wasm.OpF32ConvertI32U:
		return F32(float32(uint32(x))), nil
	case wasm.OpF32ConvertI64S:
		return F32(float32(int64(x))), nil
	case wasm.OpF32ConvertI64U:
		return F32(float32(x)), nil
	case wasm.OpF32DemoteF64:
		return F32(float32(AsF64(x))), nil
	case wasm.OpF64ConvertI32S:
		return F64(float64(int32(x))), nil
	case wasm.OpF64ConvertI32U:
		return F64(float64(uint32(x))), nil
	case wasm.OpF64ConvertI64S:
		return F64(float64(int64(x))), nil
	case wasm.OpF64ConvertI64U:
		return F64(float64(x)), nil
	case wasm.OpF64PromoteF32:
		return F64(float64(AsF32(x))), nil
	case wasm.OpI32ReinterpretF32, wasm.OpI64ReinterpretF64,
		wasm.OpF32ReinterpretI32, wasm.OpF64ReinterpretI64:
		return x, nil
	}
	return 0, fmt.Errorf("wasmvm: unhandled conversion %v", op)
}

// Wasm float min/max propagate NaN and order -0 < +0.
func wasmFMin64(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.NaN()
	}
	if a == 0 && b == 0 {
		if math.Signbit(a) {
			return a
		}
		return b
	}
	return math.Min(a, b)
}

func wasmFMax64(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.NaN()
	}
	if a == 0 && b == 0 {
		if !math.Signbit(a) {
			return a
		}
		return b
	}
	return math.Max(a, b)
}

func wasmFMin32(a, b float32) float32 { return float32(wasmFMin64(float64(a), float64(b))) }
func wasmFMax32(a, b float32) float32 { return float32(wasmFMax64(float64(a), float64(b))) }
