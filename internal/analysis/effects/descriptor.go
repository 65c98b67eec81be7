// Package effects implements the data-usage analysis of §4.2–§4.3 of
// Rinard & Diniz 1996: storage descriptors with their partial order ≼,
// the per-method read/write/dep functions, and the transitiveEffects
// abstract interpretation over (method, binding) pairs.
package effects

import (
	"strings"

	"commute/internal/frontend/types"
)

// Space discriminates the components of the storage descriptor domain
// S = P ∪ L ∪ T ∪ CL×V ∪ CL×Q×V.
type Space int

// Descriptor spaces.
const (
	DescParam Space = iota // formal reference parameter of a method
	DescLocal              // local variable of a method
	DescType               // a primitive type (the lift of params/locals)
	DescField              // CL×V or CL×Q×V: (possibly nested) instance variable
)

// Desc is one storage descriptor. Field descriptors use the *declaring*
// class of the outermost path element as CL, matching the paper's
// presentation (e.g. the receiver access pos.val in a body method is
// node.pos.val because pos is declared in class node).
//
// A field descriptor with ViaThis set is *receiver-relative*: it denotes
// storage reached from the receiver of the (not yet bound) method that
// produced it. Binding substitution (Subst) clears the flag, either by
// normalizing to the declaring class (root binding — the memory is the
// same, the paper's presentation) or by prefixing the receiver's
// nested-object path.
type Desc struct {
	Space Space

	// DescParam / DescLocal
	Method *types.Method
	Name   string

	// DescType
	Basic types.Basic

	// DescField: Class is CL; Path is q (possibly empty); Field is v.
	Class   *types.Class
	Path    []string
	Field   string
	ViaThis bool
}

// Param returns a formal-reference-parameter descriptor.
func Param(m *types.Method, name string) Desc {
	return Desc{Space: DescParam, Method: m, Name: name}
}

// Local returns a local-variable descriptor.
func Local(m *types.Method, name string) Desc {
	return Desc{Space: DescLocal, Method: m, Name: name}
}

// TypeDesc returns the primitive-type descriptor for b.
func TypeDesc(b types.Basic) Desc {
	return Desc{Space: DescType, Basic: b}
}

// FieldDesc returns a CL×V or CL×Q×V descriptor.
func FieldDesc(cl *types.Class, path []string, field string) Desc {
	return Desc{Space: DescField, Class: cl, Path: path, Field: field}
}

// ThisField returns a receiver-relative field descriptor.
func ThisField(cl *types.Class, path []string, field string) Desc {
	return Desc{Space: DescField, Class: cl, Path: path, Field: field, ViaThis: true}
}

// Key returns a canonical string identity for the descriptor, suitable
// for map keys and deterministic ordering.
func (d Desc) Key() string {
	switch d.Space {
	case DescParam:
		return "p:" + d.Method.FullName() + ":" + d.Name
	case DescLocal:
		return "l:" + d.Method.FullName() + ":" + d.Name
	case DescType:
		return "t:" + d.Basic.String()
	default:
		var sb strings.Builder
		if d.ViaThis {
			sb.WriteString("this→")
		}
		sb.WriteString(d.Class.Name)
		for _, n := range d.Path {
			sb.WriteByte('.')
			sb.WriteString(n)
		}
		sb.WriteByte('.')
		sb.WriteString(d.Field)
		return sb.String()
	}
}

func (d Desc) String() string { return d.Key() }

// fieldType resolves the primitive type of a field descriptor by
// walking the nested-object path.
func (d Desc) fieldType() (types.Basic, bool) {
	cl := d.Class
	for _, seg := range d.Path {
		f := cl.FieldByName(seg)
		if f == nil {
			return 0, false
		}
		obj, ok := f.Type.(types.Object)
		if !ok {
			return 0, false
		}
		cl = obj.Class
	}
	f := cl.FieldByName(d.Field)
	if f == nil {
		return 0, false
	}
	switch ft := f.Type.(type) {
	case types.Basic:
		return ft, true
	case types.Array:
		if b, ok := ft.Elem.(types.Basic); ok {
			return b, true
		}
		if _, isPtr := ft.Elem.(types.Pointer); isPtr {
			return types.Int, true
		}
	case types.Pointer:
		// Pointers are modelled as int-sized primitive storage for the
		// purposes of the coarse T component.
		return types.Int, true
	}
	return 0, false
}

// PrimType returns the primitive type of the storage the descriptor
// denotes (the paper's `type` function), or ok=false when it is not
// primitive-typed.
func (d Desc) PrimType() (types.Basic, bool) {
	switch d.Space {
	case DescType:
		return d.Basic, true
	case DescField:
		return d.fieldType()
	case DescParam:
		p := d.Method.ParamByName(d.Name)
		if p == nil {
			return 0, false
		}
		switch pt := p.Type.(type) {
		case types.PrimPointer:
			return pt.Elem, true
		case types.Array:
			if b, ok := pt.Elem.(types.Basic); ok {
				return b, true
			}
		case types.Basic:
			return pt, true
		}
		return 0, false
	case DescLocal:
		t, ok := d.Method.Locals[d.Name]
		if !ok {
			return 0, false
		}
		switch lt := t.(type) {
		case types.Basic:
			return lt, true
		case types.Array:
			if b, ok := lt.Elem.(types.Basic); ok {
				return b, true
			}
		case types.Pointer:
			return types.Int, true
		}
	}
	return 0, false
}

// Lift implements the paper's lift function: local variables and
// parameters are translated to their primitive types; other descriptors
// are unchanged.
func (d Desc) Lift() Desc {
	if d.Space == DescParam || d.Space == DescLocal {
		if b, ok := d.PrimType(); ok {
			return TypeDesc(b)
		}
		return TypeDesc(types.Int)
	}
	return d
}

// pathClass resolves class(cl.q): the class of the object reached by
// following the nested-object path from cl. ok=false when the path does
// not resolve.
func pathClass(cl *types.Class, path []string) (*types.Class, bool) {
	cur := cl
	for _, seg := range path {
		f := cur.FieldByName(seg)
		if f == nil {
			return nil, false
		}
		obj, ok := f.Type.(types.Object)
		if !ok {
			return nil, false
		}
		cur = obj.Class
	}
	return cur, true
}

// Leq implements the partial order s1 ≼ s2: the memory represented by
// s1 is a subset of the memory represented by s2. Per §4.2:
//
//	cl1.v ≼ cl2.v                 if cl1 inherits from cl2 or cl1 = cl2
//	cl1.q1.v ≼ cl2.v              if class(cl1.q1) inherits from / = cl2
//	cl1.q1.q2.v ≼ cl2.q2.v        if class(cl1.q1) inherits from / = cl2
//	s1 ≼ t                        if type(s1) = t (t a primitive type)
func Leq(s1, s2 Desc) bool {
	if s2.Space == DescType {
		b, ok := s1.PrimType()
		return ok && b == s2.Basic
	}
	return leqStorage(&s1, &s2)
}

// leqStorage is ≼ against a descriptor that is not a primitive type:
// the two must name the same kind of storage.
func leqStorage(s1, s2 *Desc) bool {
	if s1.Space != s2.Space {
		return false
	}
	switch s1.Space {
	case DescParam, DescLocal:
		return s1.Method == s2.Method && s1.Name == s2.Name
	case DescField:
		// Receiver-relative descriptors denote the same storage as
		// their declaring-class normalization, so the flag does not
		// affect the ordering.
		if s1.Field != s2.Field {
			return false
		}
		// s2's path must be a suffix of s1's path.
		if len(s2.Path) > len(s1.Path) {
			return false
		}
		off := len(s1.Path) - len(s2.Path)
		for i, seg := range s2.Path {
			if s1.Path[off+i] != seg {
				return false
			}
		}
		// The class reached by the non-suffix prefix of s1 must inherit
		// from (or be) s2's class.
		c1, ok := pathClass(s1.Class, s1.Path[:off])
		if !ok {
			return false
		}
		return c1.InheritsFrom(s2.Class)
	}
	return false
}

// Overlaps reports whether two descriptors may denote overlapping
// memory: s1 ≼ s2 or s2 ≼ s1.
func Overlaps(s1, s2 Desc) bool { return Leq(s1, s2) || Leq(s2, s1) }
