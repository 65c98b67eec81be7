package effects

import (
	"sort"
	"strings"
)

// Set is a set of storage descriptors: interned handles kept in
// canonical-key order without duplicates, so iteration, Slice and Key
// need no sort and the set operations copy words.
type Set struct {
	e []*entry
}

// NewSet returns a set containing the given descriptors.
func NewSet(ds ...Desc) *Set {
	s := &Set{}
	for _, d := range ds {
		s.Add(d)
	}
	return s
}

// find returns the position of key in s and whether it is present.
func (s *Set) find(key string) (int, bool) {
	i := sort.Search(len(s.e), func(i int) bool { return s.e[i].key >= key })
	return i, i < len(s.e) && s.e[i].key == key
}

func (s *Set) add(e *entry) bool {
	i, ok := s.find(e.key)
	if !ok {
		s.insert(i, e)
	}
	return !ok
}

func (s *Set) insert(i int, e *entry) {
	s.e = append(s.e, nil)
	copy(s.e[i+1:], s.e[i:])
	s.e[i] = e
}

// Add inserts d; it reports whether the set changed.
func (s *Set) Add(d Desc) bool {
	i, ok := s.find(d.Key())
	if !ok {
		s.insert(i, (*interner)(nil).get(d))
	}
	return !ok
}

// AddAll inserts every descriptor of o; it reports whether the set changed.
func (s *Set) AddAll(o *Set) bool {
	a, b := s.e, o.e
	// Skip what the two already share: the last round of a fixpoint adds
	// nothing and allocates nothing.
	i, j := 0, 0
	for i < len(a) && j < len(b) && a[i].key <= b[j].key {
		if a[i].key == b[j].key {
			j++
		}
		i++
	}
	if j == len(b) {
		return false
	}
	out := make([]*entry, i, len(a)+len(b)-j)
	copy(out, a)
	for i < len(a) && j < len(b) {
		switch {
		case a[i].key < b[j].key:
			out = append(out, a[i])
			i++
		case a[i].key > b[j].key:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	s.e = append(out, b[j:]...)
	return true
}

// Has reports exact membership (by canonical key).
func (s *Set) Has(d Desc) bool {
	_, ok := s.find(d.Key())
	return ok
}

// Len returns the number of descriptors.
func (s *Set) Len() int { return len(s.e) }

// Slice returns the descriptors sorted by canonical key.
func (s *Set) Slice() []Desc {
	out := make([]Desc, len(s.e))
	for i, e := range s.e {
		out[i] = e.Desc
	}
	return out
}

// Clone returns a copy of the set.
func (s *Set) Clone() *Set {
	return &Set{e: append([]*entry(nil), s.e...)}
}

// probe wraps a descriptor from outside the set for ≼ tests against
// its elements: the primitive type is resolved once, the key never.
func probe(d Desc) entry {
	e := entry{Desc: d}
	e.prim, e.hasPrim = d.PrimType()
	return e
}

func (s *Set) covers(d *entry) bool {
	for _, e := range s.e {
		if d.leq(e) {
			return true
		}
	}
	return false
}

// Covers reports whether some element e of the set satisfies d ≼ e.
func (s *Set) Covers(d Desc) bool {
	p := probe(d)
	return s.covers(&p)
}

// CoversAll reports whether every element of o is covered by s.
func (s *Set) CoversAll(o *Set) bool {
	for _, d := range o.e {
		if !s.covers(d) {
			return false
		}
	}
	return true
}

func (s *Set) overlaps(d *entry) bool {
	for _, e := range s.e {
		if e.overlaps(d) {
			return true
		}
	}
	return false
}

// OverlapsSet reports whether any element of s overlaps any element of o.
func (s *Set) OverlapsSet(o *Set) bool {
	for _, d := range o.e {
		if s.overlaps(d) {
			return true
		}
	}
	return false
}

// OverlapsDesc reports whether any element of s overlaps d.
func (s *Set) OverlapsDesc(d Desc) bool {
	p := probe(d)
	return s.overlaps(&p)
}

// All reports whether every descriptor satisfies pred.
func (s *Set) All(pred func(Desc) bool) bool {
	for _, e := range s.e {
		if !pred(e.Desc) {
			return false
		}
	}
	return true
}

// Filter returns the descriptors satisfying keep.
func (s *Set) Filter(keep func(Desc) bool) *Set {
	out := &Set{}
	for _, e := range s.e {
		if keep(e.Desc) {
			out.e = append(out.e, e)
		}
	}
	return out
}

// mapped returns the set of f's values over s; f maps interned entries
// to interned entries and mostly returns its argument.
func (s *Set) mapped(f func(*entry) *entry) *Set {
	out := &Set{e: make([]*entry, len(s.e))}
	for i, e := range s.e {
		out.e[i] = f(e)
	}
	out.e = canonical(out.e)
	return out
}

// canonical restores key order and uniqueness in place. Mapped sets
// arrive nearly sorted, which insertion sort handles in one pass.
func canonical(es []*entry) []*entry {
	for i := 1; i < len(es); i++ {
		x := es[i]
		j := i
		for j > 0 && es[j-1].key > x.key {
			es[j] = es[j-1]
			j--
		}
		es[j] = x
	}
	out := es[:0]
	for _, e := range es {
		if n := len(out); n == 0 || out[n-1].key != e.key {
			out = append(out, e)
		}
	}
	return out
}

// Lift returns the set of the elements' lifts: parameters and locals
// become their primitive types.
func (s *Set) Lift() *Set { return s.mapped((*entry).lifted) }

// Key returns a canonical string for the whole set (sorted keys).
func (s *Set) Key() string { return s.join(";") }

func (s *Set) String() string { return "{" + s.join(", ") + "}" }

func (s *Set) join(sep string) string {
	var sb strings.Builder
	for i, e := range s.e {
		if i > 0 {
			sb.WriteString(sep)
		}
		sb.WriteString(e.key)
	}
	return sb.String()
}
