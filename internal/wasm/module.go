package wasm

import "fmt"

// ValType is a WebAssembly value type, encoded as in the binary format.
type ValType byte

// The four WebAssembly 1.0 value types.
const (
	I32 ValType = 0x7F
	I64 ValType = 0x7E
	F32 ValType = 0x7D
	F64 ValType = 0x7C
)

// String returns the WAT name of the value type.
func (t ValType) String() string {
	switch t {
	case I32:
		return "i32"
	case I64:
		return "i64"
	case F32:
		return "f32"
	case F64:
		return "f64"
	}
	return fmt.Sprintf("valtype(0x%02x)", byte(t))
}

// Valid reports whether t is one of the four value types.
func (t ValType) Valid() bool {
	return t == I32 || t == I64 || t == F32 || t == F64
}

// BlockNone is the block type of a block that yields no value.
const BlockNone int32 = -0x40

// FuncType is a function signature.
type FuncType struct {
	Params  []ValType
	Results []ValType
}

// Equal reports whether two signatures are identical.
func (ft FuncType) Equal(other FuncType) bool {
	if len(ft.Params) != len(other.Params) || len(ft.Results) != len(other.Results) {
		return false
	}
	for i, p := range ft.Params {
		if p != other.Params[i] {
			return false
		}
	}
	for i, r := range ft.Results {
		if r != other.Results[i] {
			return false
		}
	}
	return true
}

// String renders the signature in WAT parameter/result form.
func (ft FuncType) String() string {
	s := "(func"
	for _, p := range ft.Params {
		s += " (param " + p.String() + ")"
	}
	for _, r := range ft.Results {
		s += " (result " + r.String() + ")"
	}
	return s + ")"
}

// Instr is a single decoded instruction. Structured control instructions
// (block/loop/if/else/end) appear inline in a body; the VM resolves them to
// jump targets before execution.
type Instr struct {
	Op Opcode
	// A holds the primary immediate: local/global/function index, label
	// depth, or memory alignment for loads/stores.
	A uint32
	// B holds the secondary immediate: the byte offset for loads/stores.
	B uint32
	// Val holds constant payloads (i32/i64 values, f32/f64 bit patterns)
	// as raw 64-bit values.
	Val int64
	// BlockType is the result type of block/loop/if: BlockNone or a ValType.
	BlockType int32
	// Targets holds the br_table label vector; A holds the default label.
	Targets []uint32
}

// Function is a defined (non-imported) function.
type Function struct {
	Type   uint32 // index into Module.Types
	Locals []ValType
	Body   []Instr
	Name   string // optional, emitted into the custom name section
}

// Import is an imported function. Only function imports are modeled; the
// study's modules import host hooks (e.g. the JS boundary used by Cheerp's
// memory.grow path and the timer).
type Import struct {
	Module string
	Field  string
	Type   uint32 // index into Module.Types
}

// Export is an exported module item.
type Export struct {
	Name string
	Kind ExportKind
	Idx  uint32
}

// ExportKind discriminates exported items.
type ExportKind byte

// Export kinds (binary-format encoding).
const (
	ExportFunc   ExportKind = 0
	ExportMemory ExportKind = 2
	ExportGlobal ExportKind = 3
)

// MaxPages is the largest memory limit a 32-bit linear memory may declare
// (64 Ki pages of 64 KiB: 4 GiB).
const MaxPages = 65536

// MemType declares the linear memory limits in 64 KiB pages.
type MemType struct {
	Min    uint32
	Max    uint32
	HasMax bool
}

// Global is a module global with a constant initializer.
type Global struct {
	Type    ValType
	Mutable bool
	// Init is the constant initializer value (raw bits for floats).
	Init int64
	Name string
}

// DataSegment is an active data segment copied into memory at instantiation.
type DataSegment struct {
	Offset uint32
	Bytes  []byte
}

// Module is a decoded or constructed WebAssembly module.
type Module struct {
	Types   []FuncType
	Imports []Import
	Funcs   []Function
	Mem     *MemType
	Globals []Global
	Exports []Export
	Data    []DataSegment
	Name    string
}

// NumImports returns the number of imported functions; defined function
// index space starts after them.
func (m *Module) NumImports() int { return len(m.Imports) }

// FuncTypeOf returns the signature of the function at index idx in the
// combined (imports-first) function index space.
func (m *Module) FuncTypeOf(idx uint32) (FuncType, error) {
	n := uint32(len(m.Imports))
	switch {
	case idx < n:
		ti := m.Imports[idx].Type
		if int(ti) >= len(m.Types) {
			return FuncType{}, fmt.Errorf("import %d: type index %d out of range", idx, ti)
		}
		return m.Types[ti], nil
	case idx-n < uint32(len(m.Funcs)):
		ti := m.Funcs[idx-n].Type
		if int(ti) >= len(m.Types) {
			return FuncType{}, fmt.Errorf("func %d: type index %d out of range", idx, ti)
		}
		return m.Types[ti], nil
	default:
		return FuncType{}, fmt.Errorf("function index %d out of range", idx)
	}
}

// ExportedFunc resolves an exported function by name, returning its index in
// the combined function index space.
func (m *Module) ExportedFunc(name string) (uint32, bool) {
	for _, e := range m.Exports {
		if e.Kind == ExportFunc && e.Name == name {
			return e.Idx, true
		}
	}
	return 0, false
}

// AddType interns a function type, returning its index.
func (m *Module) AddType(ft FuncType) uint32 {
	for i, t := range m.Types {
		if t.Equal(ft) {
			return uint32(i)
		}
	}
	m.Types = append(m.Types, ft)
	return uint32(len(m.Types) - 1)
}

// StaticInstrCount returns the total number of instructions across all
// defined function bodies. The study uses it as a code-shape metric.
func (m *Module) StaticInstrCount() int {
	n := 0
	for i := range m.Funcs {
		n += len(m.Funcs[i].Body)
	}
	return n
}
