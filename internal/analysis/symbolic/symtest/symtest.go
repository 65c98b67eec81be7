// Package symtest compares analysis results in tests.
package symtest

import (
	"reflect"
	"unsafe"
)

// DeepEqual is reflect.DeepEqual, except that it skips what a symbolic
// expression node records about itself rather than about the
// expression: the identity its table gave it and its rendering, which
// the first reader of its Key fills in. Results built in two tables, or
// rendered by different readers, are equal when their expressions have
// the same structure.
func DeepEqual(a, b any) bool {
	return deepEqual(reflect.ValueOf(a), reflect.ValueOf(b), map[visit]bool{})
}

// visit is a pair of pointers already under comparison, which breaks
// cycles as reflect.DeepEqual's does.
type visit struct {
	a, b unsafe.Pointer
	t    reflect.Type
}

// isNode reports whether t is the symbolic package's node header.
func isNode(t reflect.Type) bool {
	return t.Name() == "node" && t.PkgPath() == "commute/internal/analysis/symbolic"
}

func deepEqual(a, b reflect.Value, seen map[visit]bool) bool {
	if !a.IsValid() || !b.IsValid() {
		return a.IsValid() == b.IsValid()
	}
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Map, reflect.Slice:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		if a.Kind() == reflect.Slice && a.Len() != b.Len() {
			return false
		}
		if a.UnsafePointer() == b.UnsafePointer() {
			return true
		}
		v := visit{a.UnsafePointer(), b.UnsafePointer(), a.Type()}
		if seen[v] {
			return true
		}
		seen[v] = true
		switch a.Kind() {
		case reflect.Pointer:
			return deepEqual(a.Elem(), b.Elem(), seen)
		case reflect.Map:
			if a.Len() != b.Len() {
				return false
			}
			for it := a.MapRange(); it.Next(); {
				if w := b.MapIndex(it.Key()); !w.IsValid() || !deepEqual(it.Value(), w, seen) {
					return false
				}
			}
			return true
		}
		fallthrough
	case reflect.Array:
		for i := range a.Len() {
			if !deepEqual(a.Index(i), b.Index(i), seen) {
				return false
			}
		}
		return true
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return deepEqual(a.Elem(), b.Elem(), seen)
	case reflect.Struct:
		if isNode(a.Type()) {
			return true
		}
		for i := range a.NumField() {
			if !deepEqual(a.Field(i), b.Field(i), seen) {
				return false
			}
		}
		return true
	case reflect.Func:
		return a.IsNil() && b.IsNil()
	case reflect.Chan, reflect.UnsafePointer:
		return a.Pointer() == b.Pointer()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	case reflect.Float32, reflect.Float64:
		return a.Float() == b.Float()
	case reflect.Complex64, reflect.Complex128:
		return a.Complex() == b.Complex()
	case reflect.String:
		return a.String() == b.String()
	}
	panic("symtest: cannot compare " + a.Type().String())
}
