// Package jsvm implements the study's JavaScript engine substrate: a
// lexer/parser for an ES5-flavoured subset, a closure-compiling evaluator
// with static slot resolution, a mark-sweep garbage collector, and a
// two-tier execution model (interpreter tier and a hotness-triggered
// optimizing JIT tier) mirroring the engines the paper measures (§2.2.1).
//
// Like the Wasm VM, the engine maintains a deterministic virtual-cycle
// clock driven by per-construct cost tables that differ between tiers:
// boxed dynamic dispatch in the interpreter tier, type-specialized costs in
// the JIT tier. Browser profiles supply the tables and tier-up thresholds.
package jsvm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind discriminates JavaScript values.
type Kind uint8

// Value kinds.
const (
	KindUndefined Kind = iota
	KindNull
	KindBool
	KindNumber
	KindString
	KindObject
)

// Value is a JavaScript value.
type Value struct {
	Kind Kind
	Num  float64
	Str  string
	Obj  *Object
}

// Undefined is the undefined value.
var Undefined = Value{Kind: KindUndefined}

// Null is the null value.
var Null = Value{Kind: KindNull}

// Num makes a number value.
func Num(f float64) Value { return Value{Kind: KindNumber, Num: f} }

// Bool makes a boolean value.
func Bool(b bool) Value {
	v := Value{Kind: KindBool}
	if b {
		v.Num = 1
	}
	return v
}

// Str makes a string value.
func Str(s string) Value { return Value{Kind: KindString, Str: s} }

// ObjVal wraps an object.
func ObjVal(o *Object) Value { return Value{Kind: KindObject, Obj: o} }

// IsTruthy implements ToBoolean.
func (v Value) IsTruthy() bool {
	switch v.Kind {
	case KindUndefined, KindNull:
		return false
	case KindBool:
		return v.Num != 0
	case KindNumber:
		return v.Num != 0 && !math.IsNaN(v.Num)
	case KindString:
		return v.Str != ""
	default:
		return true
	}
}

// ToNumber implements the numeric coercion.
func (v Value) ToNumber() float64 {
	switch v.Kind {
	case KindNumber:
		return v.Num
	case KindBool:
		return v.Num
	case KindUndefined:
		return math.NaN()
	case KindNull:
		return 0
	case KindString:
		s := strings.TrimSpace(v.Str)
		if s == "" {
			return 0
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return math.NaN()
		}
		return f
	default:
		return math.NaN()
	}
}

// ToInt32 implements the ToInt32 abstract operation (bitwise operands).
func (v Value) ToInt32() int32 {
	return toInt32(v.ToNumber())
}

// toInt32 is the spec's ToInt32: truncate toward zero, then wrap modulo
// 2^32. A value inside the int64 range truncates exactly through int64;
// NaN and ±Inf fail the range test and take the slow path with the values
// past ±2^63, whose conversion Go leaves undefined.
func toInt32(f float64) int32 {
	if f >= -0x1p63 && f < 0x1p63 {
		return int32(uint32(int64(f)))
	}
	return int32(wrapUint32(f))
}

// toUint32 is the spec's ToUint32, by the same route as toInt32.
func toUint32(f float64) uint32 {
	if f >= -0x1p63 && f < 0x1p63 {
		return uint32(int64(f))
	}
	return wrapUint32(f)
}

// wrapUint32 is ToUint32's modulo-2^32 step for a value outside the int64
// range (already an integer there), or 0 for NaN and ±Inf. math.Mod is
// exact, so the result is too.
func wrapUint32(f float64) uint32 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	m := math.Mod(f, 0x1p32)
	if m < 0 {
		m += 0x1p32
	}
	return uint32(m)
}

// ToString implements the string coercion.
func (v Value) ToString() string {
	switch v.Kind {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "null"
	case KindBool:
		if v.Num != 0 {
			return "true"
		}
		return "false"
	case KindNumber:
		return formatNumber(v.Num)
	case KindString:
		return v.Str
	default:
		return v.Obj.toString()
	}
}

func formatNumber(f float64) string {
	if math.IsNaN(f) {
		return "NaN"
	}
	if math.IsInf(f, 1) {
		return "Infinity"
	}
	if math.IsInf(f, -1) {
		return "-Infinity"
	}
	if f == math.Trunc(f) && math.Abs(f) < 1e21 {
		return strconv.FormatFloat(f, 'f', -1, 64)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// ObjKind discriminates heap objects.
type ObjKind uint8

// Object kinds.
const (
	ObjPlain ObjKind = iota
	ObjArray
	ObjFunction
	ObjTypedArray
	ObjArrayBuffer
)

// TAKind discriminates typed-array element types.
type TAKind uint8

// Typed array kinds.
const (
	TAInt8 TAKind = iota
	TAUint8
	TAInt16
	TAUint16
	TAInt32
	TAUint32
	TAFloat32
	TAFloat64
)

// ElemSize returns the element width in bytes.
func (k TAKind) ElemSize() int {
	switch k {
	case TAInt8, TAUint8:
		return 1
	case TAInt16, TAUint16:
		return 2
	case TAInt32, TAUint32, TAFloat32:
		return 4
	default:
		return 8
	}
}

// Object is a heap-allocated JavaScript object.
type Object struct {
	Kind  ObjKind
	Props map[string]Value
	// Array storage.
	Elems []Value
	// Function storage.
	Fn *FuncObj
	// Typed array view.
	TA struct {
		Buf  *Object // ObjArrayBuffer
		Kind TAKind
		Len  int
	}
	// ArrayBuffer backing store (external memory: excluded from the JS-heap
	// metric, as in Chrome DevTools).
	Buf []byte

	// propVersion counts writes to Props (see setMember); the numeric
	// tier's intrinsic guards key their caches on it.
	propVersion uint32
	// joining marks an array whose string conversion is in progress.
	joining bool

	marked bool
}

// FuncObj is a callable.
type FuncObj struct {
	Name   string
	Code   *compiledFunc
	Env    *env
	Native func(vm *VM, this Value, args []Value) (Value, error)
	// tier state
	hot      uint64
	tieredUp bool
}

func (o *Object) toString() string {
	switch o.Kind {
	case ObjArray:
		var sb strings.Builder
		o.joinTo(&sb)
		return sb.String()
	case ObjFunction:
		name := ""
		if o.Fn != nil {
			name = o.Fn.Name
		}
		return "function " + name + "() { [native code] }"
	case ObjTypedArray:
		return fmt.Sprintf("[object TypedArray(%d)]", o.TA.Len)
	case ObjArrayBuffer:
		return "[object ArrayBuffer]"
	default:
		return "[object Object]"
	}
}

// joinTo appends an array's string conversion. An array nested in itself
// converts as "" there, as in V8; output past maxStringLength throws a
// RangeError, however the nesting repeats elements.
func (o *Object) joinTo(sb *strings.Builder) {
	if o.joining {
		return
	}
	o.joining = true
	defer func() { o.joining = false }()
	for i, e := range o.Elems {
		if i > 0 {
			sb.WriteByte(',')
		}
		switch {
		case e.Kind == KindUndefined || e.Kind == KindNull:
		case e.Kind == KindObject && e.Obj.Kind == ObjArray:
			e.Obj.joinTo(sb)
		default:
			sb.WriteString(e.ToString())
		}
		if sb.Len() > maxStringLength {
			panic(rangePanic{rangeError("Invalid string length")})
		}
	}
}

// heapSize estimates the object's JS-heap footprint in bytes. ArrayBuffer
// backing stores are *external* memory and excluded (the paper's flat JS
// memory readings come from exactly this accounting).
func (o *Object) heapSize() uint64 {
	sz := uint64(48)
	sz += uint64(len(o.Props)) * 32
	for k := range o.Props {
		sz += uint64(len(k))
	}
	sz += uint64(cap(o.Elems)) * 16
	if o.Kind == ObjFunction {
		sz += 96
	}
	return sz
}

// TAGet reads element i of a typed-array object.
func (o *Object) TAGet(i int) float64 {
	if i < 0 || i >= o.TA.Len {
		return math.NaN() // undefined coerces to NaN downstream anyway
	}
	b := o.TA.Buf.Buf
	switch o.TA.Kind {
	case TAInt8:
		return float64(int8(b[i]))
	case TAUint8:
		return float64(b[i])
	case TAInt16:
		return float64(int16(le16(b[i*2:])))
	case TAUint16:
		return float64(le16(b[i*2:]))
	case TAInt32:
		return float64(int32(le32(b[i*4:])))
	case TAUint32:
		return float64(le32(b[i*4:]))
	case TAFloat32:
		return float64(math.Float32frombits(le32(b[i*4:])))
	default:
		return math.Float64frombits(le64(b[i*8:]))
	}
}

// TASet writes element i of a typed-array object (out-of-range writes are
// dropped, per spec).
func (o *Object) TASet(i int, f float64) {
	if i < 0 || i >= o.TA.Len {
		return
	}
	b := o.TA.Buf.Buf
	switch o.TA.Kind {
	case TAInt8, TAUint8:
		b[i] = byte(toInt32(f))
	case TAInt16, TAUint16:
		v := uint16(toInt32(f))
		b[i*2], b[i*2+1] = byte(v), byte(v>>8)
	case TAInt32, TAUint32:
		v := uint32(toInt32(f))
		put32(b[i*4:], v)
	case TAFloat32:
		put32(b[i*4:], math.Float32bits(float32(f)))
	default:
		put64(b[i*8:], math.Float64bits(f))
	}
}

func le16(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }
func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
func le64(b []byte) uint64 { return uint64(le32(b)) | uint64(le32(b[4:]))<<32 }
func put32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}
func put64(b []byte, v uint64) {
	put32(b, uint32(v))
	put32(b[4:], uint32(v>>32))
}

// StrictEquals implements ===.
func StrictEquals(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindUndefined, KindNull:
		return true
	case KindNumber, KindBool:
		return a.Num == b.Num
	case KindString:
		return a.Str == b.Str
	default:
		return a.Obj == b.Obj
	}
}

// LooseEquals implements == for the subset (no object-to-primitive beyond
// numbers and strings).
func LooseEquals(a, b Value) bool {
	if a.Kind == b.Kind {
		return StrictEquals(a, b)
	}
	if (a.Kind == KindNull && b.Kind == KindUndefined) ||
		(a.Kind == KindUndefined && b.Kind == KindNull) {
		return true
	}
	return a.ToNumber() == b.ToNumber()
}
