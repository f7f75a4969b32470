package jsvm

import (
	"math"
	"strconv"
	"strings"
)

// Engine maxima. Like V8's, they are fixed rather than configured: growing
// past one throws a RangeError instead of doing the work, so a single step
// never allocates or copies more than a bounded amount. They sit above
// every benchmark's needs (the largest declared Wasm heap, __maxPages ×
// 65536, is under 300 MiB).
const (
	// maxArrayLength caps the dense arrays one step can build: growth by
	// index or length, concat and split.
	maxArrayLength = 1 << 20
	// maxBufferBytes caps one ArrayBuffer's backing store.
	maxBufferBytes = 1 << 29
	// maxStringLength caps the bytes of one string.
	maxStringLength = 1 << 24
)

func rangeError(msg string) error { return &jsThrow{v: Str("RangeError: " + msg)} }

// concat joins two strings under maxStringLength.
func (vm *VM) concat(a, b string) (Value, error) {
	if len(a)+len(b) > maxStringLength {
		return Undefined, rangeError("Invalid string length")
	}
	return Str(a + b), nil
}

// getMember reads a static property.
func (vm *VM) getMember(e *env, ov Value, name string) (Value, error) {
	if err := vm.step(e, JPropRead); err != nil {
		return Undefined, err
	}
	switch ov.Kind {
	case KindString:
		switch name {
		case "length":
			return Num(float64(len(ov.Str))), nil
		}
		return Undefined, nil
	case KindObject:
		o := ov.Obj
		switch o.Kind {
		case ObjArray:
			if name == "length" {
				return Num(float64(len(o.Elems))), nil
			}
		case ObjTypedArray:
			switch name {
			case "length":
				return Num(float64(o.TA.Len)), nil
			case "buffer":
				return ObjVal(o.TA.Buf), nil
			case "BYTES_PER_ELEMENT":
				return Num(float64(o.TA.Kind.ElemSize())), nil
			}
		case ObjArrayBuffer:
			if name == "byteLength" {
				return Num(float64(len(o.Buf))), nil
			}
		}
		if o.Props != nil {
			if v, ok := o.Props[name]; ok {
				return v, nil
			}
		}
		return Undefined, nil
	case KindUndefined, KindNull:
		return Undefined, &jsThrow{v: Str("TypeError: cannot read property '" + name + "' of " + ov.ToString())}
	}
	return Undefined, nil
}

// setMember writes a static property.
func (vm *VM) setMember(e *env, ov Value, name string, v Value) error {
	if err := vm.step(e, JPropWrite); err != nil {
		return err
	}
	if ov.Kind != KindObject {
		return &jsThrow{v: Str("TypeError: cannot set property on " + ov.ToString())}
	}
	o := ov.Obj
	if o.Kind == ObjArray && name == "length" {
		return vm.resizeArray(o, int(v.ToNumber()))
	}
	if o.Props == nil {
		o.Props = map[string]Value{}
	}
	if _, exists := o.Props[name]; !exists {
		vm.heapLive += 32 + uint64(len(name))
		if vm.heapLive > vm.heapPeak {
			vm.heapPeak = vm.heapLive
		}
		vm.allocSince += 32
	}
	o.Props[name] = v
	o.propVersion++
	return nil
}

func (vm *VM) resizeArray(o *Object, n int) error {
	if n < 0 {
		n = 0
	}
	old := uint64(cap(o.Elems)) * 16
	if n <= len(o.Elems) {
		o.Elems = o.Elems[:n]
		return nil
	}
	if n > maxArrayLength {
		return rangeError("Invalid array length")
	}
	grown := make([]Value, n)
	copy(grown, o.Elems)
	o.Elems = grown
	vm.heapLive += uint64(cap(o.Elems))*16 - old
	if vm.heapLive > vm.heapPeak {
		vm.heapPeak = vm.heapLive
	}
	vm.allocSince += uint64(n) * 16
	return nil
}

// getElement reads obj[idx].
func (vm *VM) getElement(e *env, ov, iv Value) (Value, error) {
	if ov.Kind == KindObject {
		o := ov.Obj
		switch o.Kind {
		case ObjTypedArray:
			if err := vm.step(e, JTARead); err != nil {
				return Undefined, err
			}
			i := int(iv.ToNumber())
			if i < 0 || i >= o.TA.Len {
				return Undefined, nil
			}
			return Num(o.TAGet(i)), nil
		case ObjArray:
			if err := vm.step(e, JElemRead); err != nil {
				return Undefined, err
			}
			if iv.Kind == KindNumber {
				i := int(iv.Num)
				if float64(i) == iv.Num && i >= 0 {
					if i < len(o.Elems) {
						return o.Elems[i], nil
					}
					return Undefined, nil
				}
			}
		}
	}
	if ov.Kind == KindString && iv.Kind == KindNumber {
		if err := vm.step(e, JStrOp); err != nil {
			return Undefined, err
		}
		i := int(iv.Num)
		if i >= 0 && i < len(ov.Str) {
			return Str(ov.Str[i : i+1]), nil
		}
		return Undefined, nil
	}
	return vm.getMember(e, ov, iv.ToString())
}

// setElement writes obj[idx] = v.
func (vm *VM) setElement(e *env, ov, iv, v Value) error {
	if ov.Kind == KindObject {
		o := ov.Obj
		switch o.Kind {
		case ObjTypedArray:
			if err := vm.step(e, JTAWrite); err != nil {
				return err
			}
			o.TASet(int(iv.ToNumber()), v.ToNumber())
			return nil
		case ObjArray:
			if err := vm.step(e, JElemWrite); err != nil {
				return err
			}
			if iv.Kind == KindNumber {
				i := int(iv.Num)
				if float64(i) == iv.Num && i >= 0 {
					if i >= len(o.Elems) {
						if err := vm.resizeArray(o, i+1); err != nil {
							return err
						}
					}
					o.Elems[i] = v
					return nil
				}
			}
		}
	}
	return vm.setMember(e, ov, iv.ToString(), v)
}

// invokeMethod calls obj.name(args) handling builtin methods.
func (vm *VM) invokeMethod(e *env, ov Value, name string, args []Value) (Value, error) {
	// User-defined or host method stored as a property.
	if ov.Kind == KindObject && ov.Obj.Props != nil {
		if m, ok := ov.Obj.Props[name]; ok && m.Kind == KindObject && m.Obj.Kind == ObjFunction {
			cls := JCall
			if m.Obj.Fn.Native != nil {
				cls = JCallNative
			}
			if err := vm.step(e, cls); err != nil {
				return Undefined, err
			}
			return vm.callFuncObj(m.Obj, ov, args)
		}
	}
	if err := vm.step(e, JCallNative); err != nil {
		return Undefined, err
	}
	switch ov.Kind {
	case KindString:
		return vm.stringMethod(ov.Str, name, args)
	case KindObject:
		switch ov.Obj.Kind {
		case ObjArray:
			return vm.arrayMethod(ov.Obj, name, args)
		case ObjTypedArray:
			return vm.typedArrayMethod(ov.Obj, name, args)
		case ObjFunction:
			switch name {
			case "call":
				this := Undefined
				if len(args) > 0 {
					this = args[0]
					args = args[1:]
				}
				return vm.callFuncObj(ov.Obj, this, args)
			case "apply":
				this := Undefined
				var rest []Value
				if len(args) > 0 {
					this = args[0]
				}
				if len(args) > 1 && args[1].Kind == KindObject && args[1].Obj.Kind == ObjArray {
					rest = args[1].Obj.Elems
				}
				return vm.callFuncObj(ov.Obj, this, rest)
			}
		}
	}
	return Undefined, &jsThrow{v: Str("TypeError: " + ov.ToString() + "." + name + " is not a function")}
}

func (vm *VM) stringMethod(s, name string, args []Value) (Value, error) {
	arg := func(i int) Value {
		if i < len(args) {
			return args[i]
		}
		return Undefined
	}
	switch name {
	case "charCodeAt":
		i := int(arg(0).ToNumber())
		if i < 0 || i >= len(s) {
			return Num(math.NaN()), nil
		}
		return Num(float64(s[i])), nil
	case "charAt":
		i := int(arg(0).ToNumber())
		if i < 0 || i >= len(s) {
			return Str(""), nil
		}
		return Str(s[i : i+1]), nil
	case "indexOf":
		return Num(float64(strings.Index(s, arg(0).ToString()))), nil
	case "lastIndexOf":
		return Num(float64(strings.LastIndex(s, arg(0).ToString()))), nil
	case "substring":
		a := clampIdx(int(arg(0).ToNumber()), len(s))
		b := len(s)
		if arg(1).Kind != KindUndefined {
			b = clampIdx(int(arg(1).ToNumber()), len(s))
		}
		if a > b {
			a, b = b, a
		}
		return Str(s[a:b]), nil
	case "slice":
		a := sliceIdx(int(arg(0).ToNumber()), len(s))
		b := len(s)
		if arg(1).Kind != KindUndefined {
			b = sliceIdx(int(arg(1).ToNumber()), len(s))
		}
		if a > b {
			return Str(""), nil
		}
		return Str(s[a:b]), nil
	case "split":
		sep := arg(0).ToString()
		n := len(s)
		if sep != "" {
			n = strings.Count(s, sep) + 1
		}
		if n > maxArrayLength {
			return Undefined, rangeError("Invalid array length")
		}
		parts := strings.Split(s, sep)
		vals := make([]Value, len(parts))
		for i, p := range parts {
			vals[i] = Str(p)
		}
		return ObjVal(vm.NewArray(vals)), nil
	case "toLowerCase":
		return Str(strings.ToLower(s)), nil
	case "toUpperCase":
		return Str(strings.ToUpper(s)), nil
	case "replace":
		from, to := arg(0).ToString(), arg(1).ToString()
		if len(s)+len(to) > maxStringLength {
			return Undefined, rangeError("Invalid string length")
		}
		return Str(strings.Replace(s, from, to, 1)), nil
	case "trim":
		return Str(strings.TrimSpace(s)), nil
	case "concat":
		v := Str(s)
		for _, a := range args {
			var err error
			if v, err = vm.concat(v.Str, a.ToString()); err != nil {
				return Undefined, err
			}
		}
		return v, nil
	case "toString":
		return Str(s), nil
	}
	return Undefined, &jsThrow{v: Str("TypeError: string." + name + " is not a function")}
}

func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i > n {
		return n
	}
	return i
}

func sliceIdx(i, n int) int {
	if i < 0 {
		i += n
	}
	return clampIdx(i, n)
}

func (vm *VM) arrayMethod(o *Object, name string, args []Value) (Value, error) {
	switch name {
	case "push":
		o.Elems = append(o.Elems, args...)
		vm.heapLive += uint64(len(args)) * 16
		vm.allocSince += uint64(len(args)) * 16
		if vm.heapLive > vm.heapPeak {
			vm.heapPeak = vm.heapLive
		}
		return Num(float64(len(o.Elems))), nil
	case "pop":
		if len(o.Elems) == 0 {
			return Undefined, nil
		}
		v := o.Elems[len(o.Elems)-1]
		o.Elems = o.Elems[:len(o.Elems)-1]
		return v, nil
	case "shift":
		if len(o.Elems) == 0 {
			return Undefined, nil
		}
		v := o.Elems[0]
		o.Elems = o.Elems[1:]
		return v, nil
	case "join":
		sep := ","
		if len(args) > 0 {
			sep = args[0].ToString()
		}
		parts := make([]string, len(o.Elems))
		n := len(sep) * len(parts)
		for i, el := range o.Elems {
			if el.Kind != KindUndefined && el.Kind != KindNull {
				parts[i] = el.ToString()
				n += len(parts[i])
			}
		}
		if n > maxStringLength {
			return Undefined, rangeError("Invalid string length")
		}
		return Str(strings.Join(parts, sep)), nil
	case "slice":
		a := 0
		if len(args) > 0 {
			a = sliceIdx(int(args[0].ToNumber()), len(o.Elems))
		}
		b := len(o.Elems)
		if len(args) > 1 && args[1].Kind != KindUndefined {
			b = sliceIdx(int(args[1].ToNumber()), len(o.Elems))
		}
		if a > b {
			a = b
		}
		return ObjVal(vm.NewArray(append([]Value(nil), o.Elems[a:b]...))), nil
	case "indexOf":
		if len(args) > 0 {
			for i, el := range o.Elems {
				if StrictEquals(el, args[0]) {
					return Num(float64(i)), nil
				}
			}
		}
		return Num(-1), nil
	case "concat":
		n := len(o.Elems)
		for _, a := range args {
			if a.Kind == KindObject && a.Obj.Kind == ObjArray {
				n += len(a.Obj.Elems)
			} else {
				n++
			}
		}
		if n > maxArrayLength {
			return Undefined, rangeError("Invalid array length")
		}
		out := append([]Value(nil), o.Elems...)
		for _, a := range args {
			if a.Kind == KindObject && a.Obj.Kind == ObjArray {
				out = append(out, a.Obj.Elems...)
			} else {
				out = append(out, a)
			}
		}
		return ObjVal(vm.NewArray(out)), nil
	case "fill":
		var v Value
		if len(args) > 0 {
			v = args[0]
		}
		for i := range o.Elems {
			o.Elems[i] = v
		}
		return ObjVal(o), nil
	case "toString":
		return Str(o.toString()), nil
	}
	return Undefined, &jsThrow{v: Str("TypeError: array." + name + " is not a function")}
}

func (vm *VM) typedArrayMethod(o *Object, name string, args []Value) (Value, error) {
	switch name {
	case "fill":
		f := 0.0
		if len(args) > 0 {
			f = args[0].ToNumber()
		}
		if o.TA.Len > 0 {
			// Encode the value once and replicate its bytes: the same
			// bytes the element-wise TASet loop writes.
			o.TASet(0, f)
			b := o.TA.Buf.Buf[:o.TA.Len*o.TA.Kind.ElemSize()]
			for n := o.TA.Kind.ElemSize(); n < len(b); n *= 2 {
				copy(b[n:], b[:n])
			}
		}
		return ObjVal(o), nil
	case "set":
		if len(args) > 0 && args[0].Kind == KindObject {
			src := args[0].Obj
			off := 0
			if len(args) > 1 {
				off = int(args[1].ToNumber())
			}
			// Out-of-range destination elements are dropped, as TASet
			// drops them.
			lo := max(0, -off)
			switch src.Kind {
			case ObjTypedArray:
				copyElems(o, off, src, lo, min(src.TA.Len, o.TA.Len-off))
			case ObjArray:
				for i, el := range src.Elems {
					o.TASet(off+i, el.ToNumber())
				}
			}
		}
		return Undefined, nil
	case "subarray":
		a := 0
		if len(args) > 0 {
			a = sliceIdx(int(args[0].ToNumber()), o.TA.Len)
		}
		b := o.TA.Len
		if len(args) > 1 {
			b = sliceIdx(int(args[1].ToNumber()), o.TA.Len)
		}
		if a > b {
			a = b
		}
		// A true view needs an offset; model with a copy for the subset.
		sub, err := vm.newTypedArray(o.TA.Kind, b-a)
		if err != nil {
			return Undefined, err
		}
		copyElems(sub, -a, o, a, b)
		return ObjVal(sub), nil
	}
	return Undefined, &jsThrow{v: Str("TypeError: typedarray." + name + " is not a function")}
}

// copyElems stores src elements lo..hi-1 at dst indexes off+lo..off+hi-1,
// exactly as the element-wise dst.TASet(off+i, src.TAGet(i)) loop does.
// Between distinct buffers of one element type other than Float32 (whose
// widening to float64 can quiet a NaN payload) that loop writes back the
// source bytes, so it is one bulk copy.
func copyElems(dst *Object, off int, src *Object, lo, hi int) {
	if dst.TA.Kind == src.TA.Kind && dst.TA.Kind != TAFloat32 && dst.TA.Buf != src.TA.Buf {
		if sz := dst.TA.Kind.ElemSize(); lo < hi {
			copy(dst.TA.Buf.Buf[(off+lo)*sz:(off+hi)*sz], src.TA.Buf.Buf[lo*sz:hi*sz])
		}
		return
	}
	for i := lo; i < hi; i++ {
		dst.TASet(off+i, src.TAGet(i))
	}
}

// installHost builds the global host environment: Math, console,
// performance, typed-array constructors, and the env print channel used by
// compiled (Cheerp-style) programs.
func (vm *VM) installHost() {
	vm.hostFuncs = map[string]*Object{}

	mathObj := vm.NewPlainObject()
	m1 := func(name string, f func(float64) float64) {
		mathObj.Props[name] = ObjVal(vm.NewNative("Math."+name, func(vm *VM, _ Value, args []Value) (Value, error) {
			if len(args) < 1 {
				return Num(math.NaN()), nil
			}
			return Num(f(args[0].ToNumber())), nil
		}))
	}
	m1("sqrt", math.Sqrt)
	m1("abs", math.Abs)
	m1("floor", math.Floor)
	m1("ceil", math.Ceil)
	m1("round", func(f float64) float64 { return math.Floor(f + 0.5) })
	m1("trunc", math.Trunc)
	m1("sin", math.Sin)
	m1("cos", math.Cos)
	m1("tan", math.Tan)
	m1("exp", math.Exp)
	m1("log", math.Log)
	m1("log2", math.Log2)
	m1("fround", func(f float64) float64 { return float64(float32(f)) })
	mathObj.Props["pow"] = ObjVal(vm.NewNative("Math.pow", func(vm *VM, _ Value, args []Value) (Value, error) {
		if len(args) < 2 {
			return Num(math.NaN()), nil
		}
		return Num(math.Pow(args[0].ToNumber(), args[1].ToNumber())), nil
	}))
	mathObj.Props["min"] = ObjVal(vm.NewNative("Math.min", func(vm *VM, _ Value, args []Value) (Value, error) {
		r := math.Inf(1)
		for _, a := range args {
			r = math.Min(r, a.ToNumber())
		}
		return Num(r), nil
	}))
	mathObj.Props["max"] = ObjVal(vm.NewNative("Math.max", func(vm *VM, _ Value, args []Value) (Value, error) {
		r := math.Inf(-1)
		for _, a := range args {
			r = math.Max(r, a.ToNumber())
		}
		return Num(r), nil
	}))
	mathObj.Props["imul"] = ObjVal(vm.NewNative("Math.imul", func(vm *VM, _ Value, args []Value) (Value, error) {
		if len(args) < 2 {
			return Num(0), nil
		}
		return Num(float64(args[0].ToInt32() * args[1].ToInt32())), nil
	}))
	mathObj.Props["random"] = ObjVal(vm.NewNative("Math.random", func(vm *VM, _ Value, _ []Value) (Value, error) {
		// Deterministic xorshift for reproducible studies.
		vm.rngState ^= vm.rngState << 13
		vm.rngState ^= vm.rngState >> 7
		vm.rngState ^= vm.rngState << 17
		return Num(float64(vm.rngState%1000000) / 1000000), nil
	}))
	mathObj.Props["PI"] = Num(math.Pi)
	mathObj.Props["E"] = Num(math.E)
	vm.hostFuncs["Math"] = mathObj

	consoleObj := vm.NewPlainObject()
	consoleObj.Props["log"] = ObjVal(vm.NewNative("console.log", func(vm *VM, _ Value, args []Value) (Value, error) {
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = a.ToString()
		}
		vm.Output = append(vm.Output, OutputEvent{Kind: "s", S: strings.Join(parts, " ")})
		return Undefined, nil
	}))
	vm.hostFuncs["console"] = consoleObj

	perfObj := vm.NewPlainObject()
	perfObj.Props["now"] = ObjVal(vm.NewNative("performance.now", func(vm *VM, _ Value, _ []Value) (Value, error) {
		return Num(vm.NowFn()), nil
	}))
	vm.hostFuncs["performance"] = perfObj

	taCtor := func(name string, kind TAKind) {
		vm.hostFuncs[name] = vm.NewNative(name, func(vm *VM, _ Value, args []Value) (Value, error) {
			if len(args) == 1 && args[0].Kind == KindNumber {
				ta, err := vm.newTypedArray(kind, int(args[0].Num))
				if err != nil {
					return Undefined, err
				}
				return ObjVal(ta), nil
			}
			if len(args) >= 1 && args[0].Kind == KindObject {
				src := args[0].Obj
				switch src.Kind {
				case ObjArrayBuffer:
					// new TA(buffer[, byteOffset, length]) — offset 0 only.
					n := len(src.Buf) / kind.ElemSize()
					if len(args) >= 3 {
						n = int(args[2].ToNumber())
						if n < 0 || n > len(src.Buf)/kind.ElemSize() {
							return Undefined, rangeError("Invalid typed array length")
						}
					}
					ta := vm.alloc(&Object{Kind: ObjTypedArray})
					ta.TA.Buf = src
					ta.TA.Kind = kind
					ta.TA.Len = n
					return ObjVal(ta), nil
				case ObjArray:
					ta, err := vm.newTypedArray(kind, len(src.Elems))
					if err != nil {
						return Undefined, err
					}
					for i, el := range src.Elems {
						ta.TASet(i, el.ToNumber())
					}
					return ObjVal(ta), nil
				case ObjTypedArray:
					ta, err := vm.newTypedArray(kind, src.TA.Len)
					if err != nil {
						return Undefined, err
					}
					copyElems(ta, 0, src, 0, src.TA.Len)
					return ObjVal(ta), nil
				}
			}
			ta, _ := vm.newTypedArray(kind, 0) // length 0 is within every maximum
			return ObjVal(ta), nil
		})
	}
	taCtor("Int8Array", TAInt8)
	taCtor("Uint8Array", TAUint8)
	taCtor("Int16Array", TAInt16)
	taCtor("Uint16Array", TAUint16)
	taCtor("Int32Array", TAInt32)
	taCtor("Uint32Array", TAUint32)
	taCtor("Float32Array", TAFloat32)
	taCtor("Float64Array", TAFloat64)

	vm.hostFuncs["ArrayBuffer"] = vm.NewNative("ArrayBuffer", func(vm *VM, _ Value, args []Value) (Value, error) {
		n := 0
		if len(args) > 0 {
			n = int(args[0].ToNumber())
		}
		buf, err := vm.newArrayBuffer(n)
		if err != nil {
			return Undefined, err
		}
		return ObjVal(buf), nil
	})

	strObj := vm.NewPlainObject()
	strObj.Props["fromCharCode"] = ObjVal(vm.NewNative("String.fromCharCode", func(vm *VM, _ Value, args []Value) (Value, error) {
		var sb strings.Builder
		for _, a := range args {
			sb.WriteRune(rune(int(a.ToNumber())))
		}
		return Str(sb.String()), nil
	}))
	vm.hostFuncs["String"] = strObj

	numObj := vm.NewPlainObject()
	numObj.Props["MAX_SAFE_INTEGER"] = Num(9007199254740991)
	numObj.Props["isInteger"] = ObjVal(vm.NewNative("Number.isInteger", func(vm *VM, _ Value, args []Value) (Value, error) {
		if len(args) < 1 || args[0].Kind != KindNumber {
			return Bool(false), nil
		}
		return Bool(args[0].Num == math.Trunc(args[0].Num)), nil
	}))
	vm.hostFuncs["Number"] = numObj

	// W3C Web Cryptography API, modeled synchronously: the digest runs in
	// native (browser) code, so its virtual cost is the native-call charge
	// only — the stratum behind the paper's fast "SHA (W3C)" row.
	cryptoObj := vm.NewPlainObject()
	subtle := vm.NewPlainObject()
	subtle.Props["digestSHA1"] = ObjVal(vm.NewNative("crypto.subtle.digestSHA1", func(vm *VM, _ Value, args []Value) (Value, error) {
		var msg []byte
		if len(args) > 0 && args[0].Kind == KindObject && args[0].Obj.Kind == ObjTypedArray {
			ta := args[0].Obj
			msg = make([]byte, ta.TA.Len)
			for i := range msg {
				msg[i] = byte(int64(ta.TAGet(i)))
			}
		}
		h := sha1Blocks(msg)
		out := make([]Value, 5)
		for i, v := range h {
			out[i] = Num(float64(int32(v)))
		}
		return ObjVal(vm.NewArray(out)), nil
	}))
	cryptoObj.Props["subtle"] = ObjVal(subtle)
	vm.hostFuncs["crypto"] = cryptoObj

	vm.hostFuncs["parseInt"] = vm.NewNative("parseInt", func(vm *VM, _ Value, args []Value) (Value, error) {
		if len(args) < 1 {
			return Num(math.NaN()), nil
		}
		base := 10
		if len(args) > 1 {
			base = int(args[1].ToNumber())
		}
		s := strings.TrimSpace(args[0].ToString())
		v, err := strconv.ParseInt(s, base, 64)
		if err != nil {
			return Num(math.NaN()), nil
		}
		return Num(float64(v)), nil
	})
	vm.hostFuncs["isNaN"] = vm.NewNative("isNaN", func(vm *VM, _ Value, args []Value) (Value, error) {
		if len(args) < 1 {
			return Bool(true), nil
		}
		return Bool(math.IsNaN(args[0].ToNumber())), nil
	})

	// ECMA-262 global value properties. Compiled code spells non-finite f64
	// constants as Infinity / -Infinity / NaN; without these bindings the
	// identifiers read as undefined (NaN after ToNumber), which silently
	// flips comparisons against them.
	vm.SetGlobal("Infinity", Num(math.Inf(1)))
	vm.SetGlobal("NaN", Num(math.NaN()))
	vm.SetGlobal("undefined", Undefined)

	// The print channel used by compiled Cheerp-style programs (the study's
	// output comparison across backends).
	vm.hostFuncs["print_i"] = vm.NewNative("print_i", func(vm *VM, _ Value, args []Value) (Value, error) {
		vm.Output = append(vm.Output, OutputEvent{Kind: "i", I: int64(args[0].ToNumber())})
		return Undefined, nil
	})
	vm.hostFuncs["print_f"] = vm.NewNative("print_f", func(vm *VM, _ Value, args []Value) (Value, error) {
		vm.Output = append(vm.Output, OutputEvent{Kind: "f", F: args[0].ToNumber()})
		return Undefined, nil
	})
	vm.hostFuncs["print_s"] = vm.NewNative("print_s", func(vm *VM, _ Value, args []Value) (Value, error) {
		vm.Output = append(vm.Output, OutputEvent{Kind: "s", S: args[0].ToString()})
		return Undefined, nil
	})
	// Exact 64-bit print channel for Cheerp-style compiled code (lo/hi pair).
	vm.hostFuncs["print_i64"] = vm.NewNative("print_i64", func(vm *VM, _ Value, args []Value) (Value, error) {
		lo := uint32(args[0].ToInt32())
		hi := args[1].ToInt32()
		vm.Output = append(vm.Output, OutputEvent{Kind: "i", I: int64(hi)<<32 | int64(lo)})
		return Undefined, nil
	})

	vm.rngState = 0x9E3779B97F4A7C15
}

// sha1Blocks hashes full 64-byte blocks (no padding — matching the
// benchmark kernels' block-stream usage).
func sha1Blocks(msg []byte) [5]uint32 {
	h := [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	var w [80]uint32
	rol := func(x uint32, n uint) uint32 { return x<<n | x>>(32-n) }
	for off := 0; off+64 <= len(msg); off += 64 {
		for t := 0; t < 16; t++ {
			w[t] = uint32(msg[off+t*4])<<24 | uint32(msg[off+t*4+1])<<16 |
				uint32(msg[off+t*4+2])<<8 | uint32(msg[off+t*4+3])
		}
		for t := 16; t < 80; t++ {
			w[t] = rol(w[t-3]^w[t-8]^w[t-14]^w[t-16], 1)
		}
		a, b, c, d, e := h[0], h[1], h[2], h[3], h[4]
		for t := 0; t < 80; t++ {
			var f, k uint32
			switch {
			case t < 20:
				f, k = (b&c)|(^b&d), 0x5A827999
			case t < 40:
				f, k = b^c^d, 0x6ED9EBA1
			case t < 60:
				f, k = (b&c)|(b&d)|(c&d), 0x8F1BBCDC
			default:
				f, k = b^c^d, 0xCA62C1D6
			}
			tmp := rol(a, 5) + f + e + k + w[t]
			e, d, c, b, a = d, c, rol(b, 30), a, tmp
		}
		h[0] += a
		h[1] += b
		h[2] += c
		h[3] += d
		h[4] += e
	}
	return h
}
