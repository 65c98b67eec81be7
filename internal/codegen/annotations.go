package codegen

import (
	"encoding/json"
	"fmt"
	"sort"

	"commute/internal/frontend/ast"
	"commute/internal/frontend/types"
)

// The paper's compiler runs as separate phases communicating through
// files: the analysis phase writes an annotation file identifying the
// transformations to perform, and a separate code generation pass reads
// it together with the original source (§6.2.3). Annotations is that
// file's content: a serializable, position-addressed rendering of a
// Plan.

// Annotations is the serializable form of a Plan.
type Annotations struct {
	// Methods maps full method names to their decisions.
	Methods map[string]MethodAnnotation `json:"methods"`
	// Loops lists parallel-loop decisions addressed by enclosing method
	// and source line of the `for`.
	Loops []LoopAnnotation `json:"loops"`
	// LockedClasses lists the classes that keep their mutual exclusion
	// lock.
	LockedClasses []string `json:"lockedClasses"`

	LoopsFound      int `json:"loopsFound"`
	LoopsSuppressed int `json:"loopsSuppressed"`
}

// MethodAnnotation is one method's code generation decision.
type MethodAnnotation struct {
	Parallel         bool `json:"parallel"`
	NeedsLock        bool `json:"needsLock,omitempty"`
	HoldsLockThrough bool `json:"holdsLockThrough,omitempty"`
	// Sites maps call-site ordinals (within the method, in source
	// order) to actions: "inline", "spawn", "hoisted", "serial".
	Sites []string `json:"sites,omitempty"`
}

// LoopAnnotation addresses one loop decision.
type LoopAnnotation struct {
	Method   string `json:"method"`
	Line     int    `json:"line"`
	Parallel bool   `json:"parallel"`
	Nested   bool   `json:"nested,omitempty"`
}

// actionNames writes a replicated site as the spawn it replaces: the
// annotation file carries the paper's plan, which locks.
var actionNames = map[SiteAction]string{
	ActionInline:  "inline",
	ActionSpawn:   "spawn",
	ActionHoisted: "hoisted",
	ActionSerial:  "serial",
	ActionReplica: "spawn",
}

var actionValues = map[string]SiteAction{
	"inline":  ActionInline,
	"spawn":   ActionSpawn,
	"hoisted": ActionHoisted,
	"serial":  ActionSerial,
}

// Annotations renders the plan in serializable form.
func (p *Plan) Annotations() *Annotations {
	a := &Annotations{Methods: make(map[string]MethodAnnotation, len(p.Methods))}
	for m, mp := range p.Methods {
		ma := MethodAnnotation{
			Parallel:         mp.Parallel,
			NeedsLock:        mp.NeedsLock,
			HoldsLockThrough: mp.HoldsLockThrough,
		}
		for _, cs := range m.CallSites {
			ma.Sites = append(ma.Sites, actionNames[mp.Site[cs.ID]])
		}
		a.Methods[m.FullName()] = ma
	}
	for _, lp := range p.Loops {
		a.Loops = append(a.Loops, LoopAnnotation{
			Method:   lp.Method.FullName(),
			Line:     lp.Stmt.Pos().Line,
			Parallel: lp.Parallel,
			Nested:   lp.Nested,
		})
	}
	sort.Slice(a.Loops, func(i, j int) bool {
		if a.Loops[i].Method != a.Loops[j].Method {
			return a.Loops[i].Method < a.Loops[j].Method
		}
		return a.Loops[i].Line < a.Loops[j].Line
	})
	for cl := range p.LockedClasses {
		a.LockedClasses = append(a.LockedClasses, cl.Name)
	}
	sort.Strings(a.LockedClasses)
	a.LoopsFound = p.LoopsFound
	a.LoopsSuppressed = p.LoopsSuppressed
	return a
}

// AnnotationsJSON renders the annotation file content.
func (p *Plan) AnnotationsJSON() ([]byte, error) {
	return json.MarshalIndent(p.Annotations(), "", "  ")
}

// ApplyAnnotations reconstructs an executable Plan from an annotation
// file and the (re-parsed, re-checked) program — the paper's separate
// code generation pass. The file is outside input: what it says of a
// loop or a hoisted lock is held against the program, and marking
// parallel a loop that is not a legal candidate there, or holding a lock
// through an invocation that leaves the receiver (hoistEscape), is an
// error.
func ApplyAnnotations(prog *types.Program, a *Annotations) (*Plan, error) {
	p := &Plan{
		Prog:            prog,
		Methods:         make(map[*types.Method]*MethodPlan),
		Loops:           make(map[*ast.ForStmt]*LoopPlan),
		LockedClasses:   make(map[*types.Class]bool),
		LoopsFound:      a.LoopsFound,
		LoopsSuppressed: a.LoopsSuppressed,
	}
	for _, m := range prog.Methods {
		if m.Def == nil {
			continue
		}
		ma, ok := a.Methods[m.FullName()]
		if !ok {
			return nil, fmt.Errorf("annotations missing method %s", m.FullName())
		}
		if len(ma.Sites) != len(m.CallSites) {
			return nil, fmt.Errorf("annotations for %s have %d sites, program has %d",
				m.FullName(), len(ma.Sites), len(m.CallSites))
		}
		mp := &MethodPlan{
			Method:           m,
			Parallel:         ma.Parallel,
			NeedsLock:        ma.NeedsLock,
			HoldsLockThrough: ma.HoldsLockThrough,
			Site:             make(map[int]SiteAction, len(ma.Sites)),
		}
		for i, cs := range m.CallSites {
			act, ok := actionValues[ma.Sites[i]]
			if !ok {
				return nil, fmt.Errorf("unknown site action %q in %s", ma.Sites[i], m.FullName())
			}
			mp.Site[cs.ID] = act
		}
		p.Methods[m] = mp
	}

	for _, m := range prog.Methods {
		if mp := p.Methods[m]; mp != nil && mp.HoldsLockThrough {
			if site := p.hoistEscape(m, false); site != nil {
				return nil, fmt.Errorf("annotations hold the lock of %s through: %s at %s",
					m.FullName(), escapeReason(site), site.Call.Pos())
			}
		}
	}

	// Re-address loops by (method, line).
	var loopErr error
	loopAt := make(map[string]*LoopAnnotation, len(a.Loops))
	for i := range a.Loops {
		la := &a.Loops[i]
		loopAt[fmt.Sprintf("%s:%d", la.Method, la.Line)] = la
	}
	for _, m := range prog.Methods {
		if m.Def == nil {
			continue
		}
		method := m
		ast.Inspect(m.Def.Body, func(n ast.Node) bool {
			fs, ok := n.(*ast.ForStmt)
			if !ok {
				return true
			}
			key := fmt.Sprintf("%s:%d", method.FullName(), fs.Pos().Line)
			la, found := loopAt[key]
			if !found {
				return true
			}
			lp := p.candidateLoop(method, fs)
			switch {
			case lp == nil:
				loopErr = fmt.Errorf("annotated loop at %s is not a parallel-loop candidate", key)
			case la.Parallel && lp.Reason != "":
				loopErr = fmt.Errorf("annotations mark the loop at %s parallel: %s", key, lp.Reason)
			default:
				lp.Parallel, lp.Nested = la.Parallel, la.Nested
				if !lp.Parallel {
					p.LoopsRefused++ // every serial loop; the suppressed ones come off below
				}
				p.Loops[fs] = lp
			}
			return false
		})
	}
	if loopErr != nil {
		return nil, loopErr
	}
	if len(p.Loops) != len(a.Loops) {
		return nil, fmt.Errorf("resolved %d of %d annotated loops (source drift?)", len(p.Loops), len(a.Loops))
	}
	if p.LoopsRefused -= a.LoopsSuppressed; p.LoopsRefused < 0 {
		return nil, fmt.Errorf("annotations count %d suppressed loops, more than the loops they leave serial", a.LoopsSuppressed)
	}

	for _, name := range a.LockedClasses {
		cl, ok := prog.Classes[name]
		if !ok {
			return nil, fmt.Errorf("annotations reference unknown class %s", name)
		}
		p.LockedClasses[cl] = true
	}
	return p, nil
}

// ParseAnnotations decodes an annotation file.
func ParseAnnotations(data []byte) (*Annotations, error) {
	var a Annotations
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("malformed annotation file: %w", err)
	}
	return &a, nil
}
