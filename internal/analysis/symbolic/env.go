package symbolic

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"commute/internal/analysis/effects"
	"commute/internal/frontend/types"
)

// Env supplies the context a symbolic execution runs in: the checked
// program, the extent-constant set, and the auxiliary call-site
// classification of the extent under test. An Env is safe for
// concurrent use by multiple symbolic executions.
//
// An execution consults its environment through exactly two
// questions — covers ("is this storage an extent constant?") and isAux
// ("is this call site auxiliary?") — and is deterministic in the
// answers: two environments over one program that answer an
// execution's questions alike yield the same execution, whatever else
// differs between them. That is what Memo rests on.
type Env struct {
	Prog *types.Program
	EC   *effects.Set
	// Aux reports whether a call site is auxiliary in the current
	// extent.
	Aux map[int]bool

	cache *Cache
	fp    func() string
	// asked, on a recording view of an environment (see Memo.Get), logs
	// each distinct question with its answer. A recording view belongs
	// to the one goroutine filling a memo entry.
	asked *[]question
}

// question is one thing an execution asked, with the answer it got.
type question struct {
	site int          // the call site of an isAux question; -1 for covers
	desc effects.Desc // the storage of a covers question
	key  string       // desc.Key()
	yes  bool
}

// NewEnv builds an execution environment that shares nothing with any
// other; Cache.Env builds the environments of one analysis.
func NewEnv(prog *types.Program, ec *effects.Set, aux map[int]bool) *Env {
	return NewCache(prog).Env(ec, aux)
}

// covers asks whether d holds an extent constant value.
func (env *Env) covers(d effects.Desc) bool { return env.ask(question{site: -1, desc: d}) }

// isAux asks whether the call site is auxiliary in the extent.
func (env *Env) isAux(site int) bool { return env.ask(question{site: site}) }

// answer is the environment's answer to q: the only reader of EC and
// Aux on behalf of an execution.
func (env *Env) answer(q question) bool {
	if q.site >= 0 {
		return env.Aux[q.site]
	}
	return env.EC.Covers(q.desc)
}

func (env *Env) ask(q question) bool {
	q.yes = env.answer(q)
	if env.asked != nil {
		if q.site < 0 {
			q.key = q.desc.Key()
		}
		env.note(q)
	}
	return q.yes
}

// recording returns a view of env that logs what is asked through it.
func (env *Env) recording() *Env {
	rec := *env
	rec.asked = new([]question)
	return &rec
}

// note logs q unless the same question is already there.
func (env *Env) note(q question) {
	for _, p := range *env.asked {
		if p.site == q.site && p.key == q.key {
			return
		}
	}
	*env.asked = append(*env.asked, q)
}

// answers reports whether env gives every question the recorded answer.
func (env *Env) answers(asked []question) bool {
	for _, q := range asked {
		if env.answer(q) != q.yes {
			return false
		}
	}
	return true
}

// Fingerprint identifies everything about the environment that can
// influence a symbolic execution within one program: the extent
// constant set and the auxiliary call-site classification. Two Envs
// over the same program with equal fingerprints produce identical
// execution results. (The converse is what matters for reuse and does
// not hold: see Memo.)
func (env *Env) Fingerprint() string { return env.fp() }

func (env *Env) fingerprint() string {
	var sb strings.Builder
	if env.EC != nil {
		sb.WriteString(env.EC.Key())
	}
	sb.WriteByte('|')
	sites := make([]int, 0, len(env.Aux))
	for id, on := range env.Aux {
		if on {
			sites = append(sites, id)
		}
	}
	sort.Ints(sites)
	for i, id := range sites {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(id))
	}
	return sb.String()
}

// Memo remembers values computed by symbolic executions. Every entry
// carries the questions its computation asked and is reused under any
// environment that answers them the same way: execution is
// deterministic in those answers, so by induction over the questions
// the computation would ask exactly them again and produce the same
// value. No static footprint of a method body is involved that would
// have to agree with the executor.
//
// Each key's entries are guarded by one mutex held while an entry is
// computed, so a value is computed once per distinct set of answers and
// is immutable once Get has returned it. Safe for concurrent use.
type Memo[K comparable, V any] struct {
	mu    sync.Mutex
	cells map[K]*memoCell[V]
}

type memoCell[V any] struct {
	mu      sync.Mutex
	entries []memoEntry[V]
}

type memoEntry[V any] struct {
	asked []question
	v     V
}

// Get returns the value for k under env, running compute on a
// recording view of env when no entry fits. What the value's
// computation asked counts as asked by env too, so lookups nest: an
// entry computed from other entries carries their questions.
func (t *Memo[K, V]) Get(k K, env *Env, compute func(rec *Env) V) V {
	t.mu.Lock()
	c, ok := t.cells[k]
	if !ok {
		if t.cells == nil {
			t.cells = make(map[K]*memoCell[V])
		}
		c = new(memoCell[V])
		t.cells[k] = c
	}
	t.mu.Unlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	var e *memoEntry[V]
	for i := range c.entries {
		if env.answers(c.entries[i].asked) {
			e = &c.entries[i]
			break
		}
	}
	if e == nil {
		rec := env.recording()
		v := compute(rec)
		c.entries = append(c.entries, memoEntry[V]{asked: *rec.asked, v: v})
		e = &c.entries[len(c.entries)-1]
	}
	if env.asked != nil {
		for _, q := range e.asked {
			env.note(q)
		}
	}
	return e.v
}

// Len returns the number of entries over all keys.
func (t *Memo[K, V]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, c := range t.cells {
		c.mu.Lock()
		n += len(c.entries)
		c.mu.Unlock()
	}
	return n
}

// Cache holds what the symbolic executions of one program share across
// environments: the table their expressions are interned in, the
// footnote-4 constant arguments, which depend on the program only, and
// the state each method body leaves when run from the initial state. It
// is dropped with the analysis that owns it, and the table with it.
type Cache struct {
	prog *types.Program
	tab  *Table

	constOnce sync.Once
	constArgs map[*types.Method][]Expr

	// What every body execution starts from (initialOf).
	initMu sync.Mutex
	params map[firstKey][]Expr
	ivars  map[*types.Class][]ivar

	first Memo[firstKey, *firstRun]
	execs atomic.Int64
}

// NewCache returns an empty cache for prog, with a table of its own.
func NewCache(prog *types.Program) *Cache {
	return &Cache{prog: prog, tab: newTable(len(prog.ExprType))}
}

// Env builds an execution environment backed by the cache.
func (c *Cache) Env(ec *effects.Set, aux map[int]bool) *Env {
	env := &Env{Prog: c.prog, EC: ec, Aux: aux, cache: c}
	env.fp = sync.OnceValue(env.fingerprint)
	return env
}

// Table returns the table the environment's executions intern their
// expressions in.
func (env *Env) Table() *Table { return env.cache.tab }

// Executions returns the number of method bodies executed so far.
func (c *Cache) Executions() int { return int(c.execs.Load()) }

// FirstRuns returns the number of memoized first runs.
func (c *Cache) FirstRuns() int { return c.first.Len() }

type firstKey struct {
	m   *types.Method
	tag string
}

// firstRun is the executor state after one body ran from the initial
// state, or the reason it could not.
type firstRun struct {
	ivars   map[string]Expr
	invoked Multiset
	err     error
}

// firstRun returns the memoized state after invocation tag of m.
func (env *Env) firstRun(m *types.Method, tag string) *firstRun {
	return env.cache.first.Get(firstKey{m, tag}, env, func(rec *Env) *firstRun {
		ex := &executor{env: rec, tab: rec.cache.tab}
		fr := &firstRun{}
		fr.err = ex.runMethod(m, tag, &fr.invoked)
		fr.ivars = ex.ivars
		return fr
	})
}

// ivar is an instance variable's state key and pre-execution value.
type ivar struct {
	key  string
	init Expr
}

// initialOf returns what invocation tag of m starts from, made once per
// (method, tag) and per class: each parameter's binding — its footnote-4
// constant, else the variable tag:name — and the instance variables of
// m's class and its bases with their initial values iv:class.field
// (nested objects are accessed via operations and have none).
func (c *Cache) initialOf(m *types.Method, tag string) ([]Expr, []ivar) {
	c.initMu.Lock()
	defer c.initMu.Unlock()
	if c.params == nil {
		c.params, c.ivars = make(map[firstKey][]Expr), make(map[*types.Class][]ivar)
	}
	ps, ok := c.params[firstKey{m, tag}]
	if !ok {
		consts := c.constArgsOf(m)
		ps = make([]Expr, len(m.Params))
		for i, p := range m.Params {
			if consts != nil && consts[i] != nil {
				ps[i] = consts[i]
			} else {
				ps[i] = Var{Name: tag + ":" + p.Name}
			}
		}
		c.params[firstKey{m, tag}] = ps
	}
	ivs, ok := c.ivars[m.Class]
	if !ok {
		for cl := m.Class; cl != nil; cl = cl.Base {
			for _, f := range cl.Fields {
				if _, isObj := f.Type.(types.Object); !isObj {
					key := f.QualName()
					ivs = append(ivs, ivar{key, Var{Name: "iv:" + key}})
				}
			}
		}
		c.ivars[m.Class] = ivs
	}
	return ps, ivs
}

// constArgsOf implements the footnote-4 optimization: for each
// parameter, if every call site in the program passes the same literal,
// symbolic executions use the literal itself. The result is nil for a
// method nothing calls.
func (c *Cache) constArgsOf(m *types.Method) []Expr {
	c.constOnce.Do(func() {
		c.constArgs = make(map[*types.Method][]Expr)
		for _, cs := range c.prog.CallSites {
			args, seen := c.constArgs[cs.Callee]
			if !seen {
				args = make([]Expr, len(cs.Callee.Params))
				c.constArgs[cs.Callee] = args
			}
			for i, arg := range cs.Call.Args {
				if i >= len(args) {
					break
				}
				lit := literalExpr(arg)
				if !seen {
					args[i] = lit
				} else if args[i] != nil && (lit == nil || lit.Key() != args[i].Key()) {
					args[i] = nil
				}
			}
		}
	})
	return c.constArgs[m]
}
