// Package interp implements the execution engines for the mini-C++
// dialect: a tree-walking interpreter (the semantic baseline) and a
// closure-compiled engine that lowers each method body to a tree of
// thunks once per program. Both engines share the object model used by
// the real parallel runtime and the instrumented executor that records
// task/lock event traces for the DASH simulator.
package interp

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"commute/internal/frontend/types"
)

// Kind discriminates the payload of a Value.
type Kind uint8

// Value kinds. KNull is the zero value: a zeroed Value is the NULL
// pointer.
const (
	KNull Kind = iota
	KInt
	KFloat
	KBool
	KString
	KObject
	KArray
)

func (k Kind) String() string {
	switch k {
	case KNull:
		return "null"
	case KInt:
		return "int"
	case KFloat:
		return "double"
	case KBool:
		return "boolean"
	case KString:
		return "string"
	case KObject:
		return "object"
	case KArray:
		return "array"
	}
	return "invalid"
}

// Value is an unboxed tagged runtime value. Numeric and boolean
// payloads live in the num word (int64 bits, float64 bits, or 0/1), so
// int/float/bool arithmetic never heap-allocates — the previous
// `Value = any` representation boxed every float64 result through an
// interface conversion, which was the dominant allocation source on
// float-heavy kernels. Reference payloads (*Object, *Array, string)
// live in ref.
type Value struct {
	kind Kind
	num  uint64
	ref  any
}

// IntValue wraps an int64.
func IntValue(v int64) Value { return Value{kind: KInt, num: uint64(v)} }

// FloatValue wraps a float64.
func FloatValue(v float64) Value { return Value{kind: KFloat, num: math.Float64bits(v)} }

// BoolValue wraps a bool.
func BoolValue(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return Value{kind: KBool, num: n}
}

// StringValue wraps a string (print builtins only).
func StringValue(v string) Value { return Value{kind: KString, ref: v} }

// ObjectValue wraps an object pointer; a nil *Object is NULL.
func ObjectValue(o *Object) Value {
	if o == nil {
		return Value{}
	}
	return Value{kind: KObject, ref: o}
}

// ArrayValue wraps an array pointer.
func ArrayValue(a *Array) Value { return Value{kind: KArray, ref: a} }

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is the NULL pointer.
func (v Value) IsNull() bool { return v.kind == KNull }

// Int returns the int64 payload (zero for other kinds).
func (v Value) Int() int64 {
	if v.kind != KInt {
		return 0
	}
	return int64(v.num)
}

// Float returns the float64 payload (zero for other kinds).
func (v Value) Float() float64 {
	if v.kind != KFloat {
		return 0
	}
	return math.Float64frombits(v.num)
}

// Bool returns the boolean payload (false for other kinds).
func (v Value) Bool() bool { return v.kind == KBool && v.num != 0 }

// Str returns the string payload ("" for other kinds).
func (v Value) Str() string {
	if v.kind != KString {
		return ""
	}
	return v.ref.(string)
}

// Object returns the object payload (nil for other kinds).
func (v Value) Object() *Object {
	if v.kind != KObject {
		return nil
	}
	return v.ref.(*Object)
}

// Array returns the array payload (nil for other kinds).
func (v Value) Array() *Array {
	if v.kind != KArray {
		return nil
	}
	return v.ref.(*Array)
}

// Any unwraps the value to its natural Go representation: int64,
// float64, bool, string, *Object, *Array, or nil (state inspection).
func (v Value) Any() any {
	switch v.kind {
	case KInt:
		return int64(v.num)
	case KFloat:
		return math.Float64frombits(v.num)
	case KBool:
		return v.num != 0
	case KString, KObject, KArray:
		return v.ref
	}
	return nil
}

// Object is a heap object. Fields are stored in a flat slot array laid
// out base-class-first so that concurrent access to distinct fields of
// one object never races (the paper's generated code relies on
// per-object locks protecting only the fields an operation writes).
type Object struct {
	Class *types.Class
	Slots []Value
	// Mutex is the per-object lock the generated parallel code
	// acquires around object sections (§5).
	Mutex sync.Mutex
	// ID is a stable identity for tracing and simulation: the objects of
	// one interpreter are numbered from 1 in allocation order.
	ID int64
}

// Array is a fixed-size array of primitives or object pointers. Arrays
// are storage, not values: the dialect never assigns whole arrays.
type Array struct {
	Elems []Value
}

// objTemplate is what NewObject copies: every slot's zero value, but for
// the nested objects and arrays, which each object allocates afresh.
type objTemplate struct {
	zero  []Value
	fresh []freshSlot
}

type freshSlot struct {
	slot int
	t    types.Type
}

// templates builds every class's object template over its checked
// layout (types.Class.Layout). The fresh slots go the derived class's
// first, the order in which NewObject allocates them and numbers them.
func templates(prog *types.Program) map[*types.Class]*objTemplate {
	tm := make(map[*types.Class]*objTemplate, len(prog.ClassList))
	for _, cl := range prog.ClassList {
		t := &objTemplate{zero: make([]Value, len(cl.Layout))}
		for c := cl; c != nil; c = c.Base {
			for _, f := range c.Fields {
				if z, ok := primZero(f.Type); ok {
					t.zero[f.Slot] = z
				} else {
					t.fresh = append(t.fresh, freshSlot{f.Slot, f.Type})
				}
			}
		}
		tm[cl] = t
	}
	return tm
}

// NewObject allocates an object of class cl with default-initialized
// fields (zero numbers, false booleans, nil pointers, recursively
// allocated nested objects and arrays).
func (ip *Interp) NewObject(cl *types.Class) *Object {
	t := ip.code.tmpl[cl]
	o := &Object{
		Class: cl,
		Slots: slices.Clone(t.zero),
		ID:    ip.objectIDs.Add(1),
	}
	for _, f := range t.fresh {
		o.Slots[f.slot] = ip.zeroValue(f.t)
	}
	return o
}

func (ip *Interp) zeroValue(t types.Type) Value {
	if v, ok := primZero(t); ok {
		return v
	}
	switch tt := t.(type) {
	case types.Object:
		return ObjectValue(ip.NewObject(tt.Class))
	case types.Array:
		a := &Array{Elems: make([]Value, tt.Len)}
		if z, ok := primZero(tt.Elem); ok {
			for i := range a.Elems {
				a.Elems[i] = z
			}
		} else {
			for i := range a.Elems {
				a.Elems[i] = ip.zeroValue(tt.Elem)
			}
		}
		return ArrayValue(a)
	}
	return Value{}
}

// primZero is the zero value of a primitive or pointer type, which
// needs no allocation (ok=false: an object or array type).
func primZero(t types.Type) (v Value, ok bool) {
	switch t := t.(type) {
	case types.Basic:
		switch t {
		case types.Int:
			return IntValue(0), true
		case types.Double:
			return FloatValue(0), true
		case types.Bool:
			return BoolValue(false), true
		}
		return Value{}, true
	case types.Pointer:
		return Value{}, true
	}
	return Value{}, false
}

// RuntimeError is a failure during interpretation.
type RuntimeError struct {
	Msg string
}

func (e *RuntimeError) Error() string { return e.Msg }

func rtErrf(format string, args ...any) *RuntimeError {
	return &RuntimeError{Msg: fmt.Sprintf(format, args...)}
}

// Truthy coerces a Value used as a condition.
func truthy(v Value) (bool, error) {
	if v.kind != KBool {
		return false, rtErrf("condition is not boolean: %s", v.kind)
	}
	return v.num != 0, nil
}

func asFloat(v Value) (float64, bool) {
	switch v.kind {
	case KFloat:
		return math.Float64frombits(v.num), true
	case KInt:
		return float64(int64(v.num)), true
	}
	return 0, false
}
