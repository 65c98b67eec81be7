package effects

import (
	"sort"
	"strings"

	"commute/internal/frontend/types"
)

// RecvBind binds a method's receiver for descriptor substitution. A nil
// *RecvBind is the root binding: receiver-relative descriptors
// normalize to the declaring class of their outermost element (the
// paper's CL), which denotes the same storage. A non-nil RecvBind
// prefixes the receiver's nested-object path.
type RecvBind struct {
	Class *types.Class
	Path  []string
}

// Binding is the paper's b : P → S extended with the receiver context.
type Binding struct {
	Recv *RecvBind
	// ref maps formal reference-parameter names of the bound method to
	// the storage descriptors of their actuals.
	ref map[string]*entry
	// in interns the descriptors substitution creates; nil for a
	// binding made without an Analyzer (Identity).
	in *interner
}

// Identity returns the identity binding for m: the receiver stays
// receiver-relative-normalized and each formal reference parameter maps
// to itself.
func Identity(m *types.Method) Binding { return identity(m, nil) }

func identity(m *types.Method, in *interner) Binding {
	b := Binding{in: in}
	for _, p := range m.ReferenceParams() {
		b.bindRef(p.Name, in.get(Param(m, p.Name)))
	}
	return b
}

func (b *Binding) bindRef(name string, actual *entry) {
	if b.ref == nil {
		b.ref = make(map[string]*entry)
	}
	b.ref[name] = actual
}

// Key returns a canonical identity for the binding, for worklist
// deduplication.
func (b Binding) Key() string {
	var sb strings.Builder
	if b.Recv != nil {
		sb.WriteString("@")
		sb.WriteString(b.Recv.Class.Name)
		for _, p := range b.Recv.Path {
			sb.WriteByte('.')
			sb.WriteString(p)
		}
	}
	names := make([]string, 0, len(b.ref))
	for n := range b.ref {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sb.WriteByte('|')
		sb.WriteString(n)
		sb.WriteByte('=')
		sb.WriteString(b.ref[n].key)
	}
	return sb.String()
}

// subst substitutes a descriptor under the binding: receiver-relative
// field descriptors are re-rooted, and reference-parameter descriptors
// are replaced by their actuals.
func (b Binding) subst(e *entry) *entry {
	switch e.Space {
	case DescField:
		if !e.ViaThis {
			return e
		}
		if b.Recv == nil {
			return e.norm
		}
		return b.in.get(FieldDesc(b.Recv.Class, joinPath(b.Recv.Path, e.Path), e.Field))
	case DescParam:
		if actual, ok := b.ref[e.Name]; ok {
			return actual
		}
	}
	return e
}

func joinPath(a, b []string) []string {
	path := make([]string, 0, len(a)+len(b))
	return append(append(path, a...), b...)
}

// SubstSet substitutes every descriptor of s.
func (b Binding) SubstSet(s *Set) *Set { return s.mapped(b.subst) }

// SubstAll reports whether pred holds of every descriptor of s
// substituted under b: SubstSet(s).All(pred) without building the set.
func (b Binding) SubstAll(s *Set, pred func(Desc) bool) bool {
	for _, e := range s.e {
		if !pred(b.subst(e).Desc) {
			return false
		}
	}
	return true
}

// addSubst adds to s every descriptor of o substituted under b. The
// substitutions go through scratch, which it returns for the next call
// to reuse.
func (s *Set) addSubst(b Binding, o *Set, scratch []*entry) []*entry {
	scratch = scratch[:0]
	for _, e := range o.e {
		scratch = append(scratch, b.subst(e))
	}
	s.merge(canonical(scratch))
	return scratch
}

// Bind computes the callee binding at a call site (the paper's
// bind(c, b)): the receiver actual composed with the caller's receiver
// binding, and each formal reference parameter mapped to the descriptor
// of its actual under the caller binding.
func (a *Analyzer) Bind(caller *types.Method, cc CallContext, b Binding) Binding {
	out := Binding{in: &a.in}
	switch cc.Recv.Kind {
	case RecvThis:
		out.Recv = b.Recv
	case RecvFree:
		out.Recv = nil
	case RecvNested:
		if cc.Recv.ViaThis && b.Recv != nil {
			out.Recv = &RecvBind{Class: b.Recv.Class, Path: joinPath(b.Recv.Path, cc.Recv.Path)}
		} else {
			out.Recv = &RecvBind{Class: cc.Recv.Class, Path: cc.Recv.Path}
		}
	}
	for name, act := range cc.Refs {
		switch act.Kind {
		case ActLocal:
			out.bindRef(name, a.in.get(Local(caller, act.Name)))
		case ActParam:
			out.bindRef(name, b.subst(a.in.get(Param(caller, act.Name))))
		case ActField:
			out.bindRef(name, b.subst(a.in.get(act.Field)))
		default:
			// Unanalyzable actual: bind to the coarse primitive-type
			// descriptor of the formal.
			out.bindRef(name, a.in.get(Param(cc.Site.Callee, name)).lifted())
		}
	}
	return out
}
