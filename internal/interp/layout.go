package interp

import "commute/internal/frontend/types"

// This file exports the interpreter's slot layout to the rest of the
// system — in particular to internal/codegen's native Go backend,
// which must lay out its generated structs and state dumps in exactly
// the order the interpreter assigns object slots, and to differential
// harnesses that walk interpreter heaps. There is one source of truth
// for layout (resolve/newLayout); these accessors read it instead of
// letting a second implementation drift.

// FieldInfo describes one field slot of a class instance.
type FieldInfo struct {
	Name      string     // the dialect field name
	DeclClass string     // name of the class that declares the field
	Slot      int        // object slot index (base-class fields first)
	Type      types.Type // declared field type
}

// ClassLayout returns the full field layout of cl — inherited fields
// first, each class's own fields in declaration order — with the slot
// index the interpreter assigns to each, which is that order (slots are
// dense: 0..len-1). The result is freshly allocated; computing it
// builds no resolution of the program.
func ClassLayout(cl *types.Class) []FieldInfo {
	var chain []*types.Class
	for c := cl; c != nil; c = c.Base {
		chain = append(chain, c)
	}
	var out []FieldInfo
	for i := len(chain) - 1; i >= 0; i-- {
		c := chain[i]
		for _, f := range c.Fields {
			out = append(out, FieldInfo{Name: f.Name, DeclClass: c.Name, Slot: len(out), Type: f.Type})
		}
	}
	return out
}

// ClassSlotCount returns the number of object slots an instance of cl
// occupies (its own fields plus all inherited ones).
func ClassSlotCount(prog *types.Program, cl *types.Class) int {
	return resolve(prog).layout.size[cl]
}

// VarInfo describes one frame slot of a method activation.
type VarInfo struct {
	Name  string     // parameter or local name
	Type  types.Type // declared type
	Param bool       // true for the leading parameter slots
}

// MethodFrame returns the frame layout of m in slot order: parameters
// first (in declaration order), then locals in first-declaration
// order. A name reused by several DeclStmts shares one slot, exactly
// as the interpreter scopes method locals.
func MethodFrame(prog *types.Program, m *types.Method) []VarInfo {
	ms := resolve(prog).methods[m.ID]
	out := make([]VarInfo, ms.n)
	for i := 0; i < ms.n; i++ {
		out[i] = VarInfo{
			Name:  ms.names[i],
			Type:  ms.types[i],
			Param: i < len(m.Params),
		}
	}
	return out
}
