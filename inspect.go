package commute

import (
	"fmt"
	"strconv"
	"strings"

	"commute/internal/frontend/types"
	"commute/internal/interp"
)

// Read navigates interpreter state by a dotted path rooted at a global
// variable, e.g. "Builder.nodes[3].sum" or "Nbody.bodies[0].pos.val[1]".
// It returns the primitive value (int64, float64, or bool) at the path.
func (s *System) Read(ip *interp.Interp, path string) (any, error) {
	segs, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("empty path")
	}
	obj, ok := ip.Globals[segs[0].name]
	if !ok {
		return nil, fmt.Errorf("unknown global %q", segs[0].name)
	}
	cur := interp.ObjectValue(obj)
	if segs[0].indexed {
		return nil, fmt.Errorf("global %q cannot be indexed", segs[0].name)
	}
	for _, seg := range segs[1:] {
		o := cur.Object()
		if o == nil {
			if cur.IsNull() {
				return nil, fmt.Errorf("nil object before field %q", seg.name)
			}
			return nil, fmt.Errorf("field %q applied to non-object %T", seg.name, cur.Any())
		}
		f := o.Class.FieldByName(seg.name)
		if f == nil {
			return nil, fmt.Errorf("class %s has no field %q", o.Class.Name, seg.name)
		}
		cur = o.Slots[f.Slot]
		if seg.indexed {
			arr := cur.Array()
			if arr == nil {
				return nil, fmt.Errorf("field %q is not an array", seg.name)
			}
			if seg.index < 0 || seg.index >= len(arr.Elems) {
				return nil, fmt.Errorf("index %d out of range for %q", seg.index, seg.name)
			}
			cur = arr.Elems[seg.index]
		}
	}
	return cur.Any(), nil
}

// ReadInt reads an integer-valued path.
func (s *System) ReadInt(ip *interp.Interp, path string) (int64, error) {
	v, err := s.Read(ip, path)
	if err != nil {
		return 0, err
	}
	i, ok := v.(int64)
	if !ok {
		return 0, fmt.Errorf("%s is %T, not int", path, v)
	}
	return i, nil
}

// ReadFloat reads a double-valued path.
func (s *System) ReadFloat(ip *interp.Interp, path string) (float64, error) {
	v, err := s.Read(ip, path)
	if err != nil {
		return 0, err
	}
	switch x := v.(type) {
	case float64:
		return x, nil
	case int64:
		return float64(x), nil
	}
	return 0, fmt.Errorf("%s is %T, not a number", path, v)
}

// Class returns a declared class (state-inspection helper).
func (s *System) Class(name string) *types.Class { return s.Prog.Classes[name] }

type pathSeg struct {
	name    string
	indexed bool
	index   int
}

func splitPath(path string) ([]pathSeg, error) {
	var out []pathSeg
	for _, part := range strings.Split(path, ".") {
		seg := pathSeg{name: part}
		if i := strings.IndexByte(part, '['); i >= 0 {
			if !strings.HasSuffix(part, "]") {
				return nil, fmt.Errorf("malformed path segment %q", part)
			}
			idx, err := strconv.Atoi(part[i+1 : len(part)-1])
			if err != nil {
				return nil, fmt.Errorf("malformed index in %q", part)
			}
			seg.name = part[:i]
			seg.indexed = true
			seg.index = idx
		}
		if seg.name == "" {
			return nil, fmt.Errorf("empty path segment in %q", path)
		}
		out = append(out, seg)
	}
	return out, nil
}
