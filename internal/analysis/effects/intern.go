package effects

import (
	"strings"
	"sync"

	"commute/internal/frontend/types"
)

// entry is a descriptor together with everything the analyses keep
// deriving from it: the canonical key, the primitive type, the lift
// and the declaring-class normalization. Sets hold *entry handles, so
// set algebra moves words and compares cached keys.
//
// An entry is immutable and self-contained: two entries with the same
// key are interchangeable whichever interner (or none) produced them,
// and nothing in one records when or where it was interned. Sets over
// one program therefore compare equal across Analyzers.
type entry struct {
	Desc
	key     string
	prim    types.Basic
	hasPrim bool
	lift    *entry // the primitive-type entry of a parameter or local; nil when Lift is the identity
	norm    *entry // a receiver-relative field with ViaThis cleared; nil otherwise
}

// leq is Leq on entries, with s1's primitive type already known.
func (e *entry) leq(o *entry) bool {
	if o.Space == DescType {
		return e.hasPrim && e.prim == o.Basic
	}
	return leqStorage(&e.Desc, &o.Desc)
}

func (e *entry) overlaps(o *entry) bool { return e.leq(o) || o.leq(e) }

// lifted returns the entry of e.Lift().
func (e *entry) lifted() *entry {
	if e.lift != nil {
		return e.lift
	}
	return e
}

// interner holds one entry per distinct descriptor of a program, so a
// descriptor's key is built once however many sets it flows through.
// It lives and dies with its Analyzer. A nil *interner is valid and
// builds a fresh entry per request — what the package-level
// constructors (NewSet, Identity) use, having no Analyzer to ask.
type interner struct {
	mu sync.Mutex
	m  map[internKey]*entry
}

// internKey is Desc made comparable: the nested-object path joined.
type internKey struct {
	space   Space
	method  *types.Method
	name    string
	basic   types.Basic
	class   *types.Class
	path    string
	field   string
	viaThis bool
}

func (in *interner) get(d Desc) *entry {
	if in == nil {
		return in.build(d)
	}
	k := internKey{d.Space, d.Method, d.Name, d.Basic, d.Class, "", d.Field, d.ViaThis}
	switch len(d.Path) {
	case 0:
	case 1:
		k.path = d.Path[0]
	default:
		k.path = strings.Join(d.Path, ".")
	}
	in.mu.Lock()
	e, ok := in.m[k]
	in.mu.Unlock()
	if ok {
		return e
	}
	e = in.build(d) // outside the lock: it interns the lift and the normalization
	in.mu.Lock()
	defer in.mu.Unlock()
	if first, ok := in.m[k]; ok {
		return first
	}
	if in.m == nil {
		in.m = make(map[internKey]*entry)
	}
	in.m[k] = e
	return e
}

func (in *interner) build(d Desc) *entry {
	e := &entry{Desc: d, key: d.Key()}
	e.prim, e.hasPrim = d.PrimType()
	switch {
	case d.Space == DescParam || d.Space == DescLocal:
		e.lift = in.get(d.Lift())
	case d.Space == DescField && d.ViaThis:
		d.ViaThis = false
		e.norm = in.get(d)
	}
	return e
}
