// Package nativert is the runtime support library for programs the
// native Go backend emits (internal/codegen's emitgo). Generated
// packages are ordinary Go modules and cannot import commute's
// internal packages, so the handful of runtime pieces they need beyond
// the rtkit scheduler live here: the run-wide pool, the
// guided-self-scheduling loop body, the speculation journals (spec.go),
// interpreter-compatible print formatting, and the state dumper the
// differential harness diffs against interpreter heaps.
package nativert

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"sync"

	"commute/rtkit"
)

// Error is a structured runtime failure raised by generated code or by
// this support library: the failing operation plus the generated-method
// and source-site context a bare panic string cannot carry. Generated
// drivers recover it at the top of main and report it on stderr, so a
// runtime fault in a native binary identifies where in the dialect
// program it happened.
type Error struct {
	Op     string // runtime operation that failed (e.g. "gss")
	Method string // dialect method (full name) executing when it failed
	Site   string // source position of the failing construct, when known
	Msg    string // what went wrong
}

func (e *Error) Error() string {
	s := "nativert: " + e.Op
	if e.Method != "" {
		s += " in " + e.Method
	}
	if e.Site != "" {
		s += " at " + e.Site
	}
	return s + ": " + e.Msg
}

// Errf panics with a structured *Error. Generated code calls it where
// the interpreter would raise a RuntimeError; the generated driver's
// recover turns the panic into a stderr report and a non-zero exit.
func Errf(op, method, site, format string, args ...any) {
	panic(&Error{Op: op, Method: method, Site: site, Msg: fmt.Sprintf(format, args...)})
}

// runPool is the run-wide scheduler: every parallel region of the
// process enters, and every parallel loop runs, on this one pool.
var (
	runPoolOnce sync.Once
	runPool     *rtkit.Pool
)

// Pool returns the run-wide pool, starting it with workers at the first
// call; later calls return that pool whatever they pass. Region wrappers
// Drain it at their join and never shut it down, so the worker
// goroutines start once per process and park between regions.
func Pool(workers int) *rtkit.Pool {
	runPoolOnce.Do(func() { runPool = rtkit.NewPool(max(workers, 1), rtkit.Stealing, rtkit.Hooks{}) })
	return runPool
}

// gssRun is one execution of a native parallel loop: rtkit.Loop's cursor
// and join plus what a claimant needs — the factory of the proven loop
// or, for a speculative one, the region and the journaled factory.
type gssRun struct {
	rtkit.Loop
	mk     func() func(int64)
	sr     *SpecRegion
	specMk func(*SpecJournal) func(int64)
}

var gssRuns sync.Pool // of *gssRun

// GSS runs a parallel loop from a goroutine that holds no scheduler
// handle (see GSSOn): helpers are offered through the run-wide pool's
// external handle.
func GSS(method, site string, workers int, from, to, step int64, mk func() func(int64)) {
	GSSOn(Pool(workers).External(), method, site, workers, from, to, step, mk)
}

// GSSOn runs the counted loop for (i = from; i < to; i += step) on w's
// pool with guided self-scheduling: each claimant takes
// remaining/workers iterations (minimum one chunk of one) via an atomic
// compare-and-swap on the shared cursor, exactly the chunking the
// interpreter runtime uses (both call rtkit.Loop.Next), so native and
// interpreted runs make the same chunk claims. The calling goroutine is
// a claimant itself and up to workers-1 helpers join as pool tasks
// (rtkit.Pool.RunLoop); no goroutine is created.
//
// method and site identify the loop for failure reports (the emitter
// passes the enclosing dialect method and the loop's source position),
// w is the scheduler handle the enclosing P_ body holds. mk is
// called once per claimant and returns the iteration body; the emitter
// uses that factory to give every claimant its own copy of the
// enclosing method's frame variables, mirroring the interpreter's
// per-claimant iteration frames (NewIterFrame). step must be positive:
// the planner only parallelizes loops it proved counted with a positive
// literal step.
func GSSOn(w *rtkit.Worker, method, site string, workers int, from, to, step int64, mk func() func(int64)) {
	runLoop(w, nil, method, site, workers, from, to, step, mk, nil)
}

func runLoop(w *rtkit.Worker, sr *SpecRegion, method, site string, workers int, from, to, step int64,
	mk func() func(int64), specMk func(*SpecJournal) func(int64)) {
	if step <= 0 {
		Errf("gss", method, site, "non-positive step %d", step)
	}
	if from >= to {
		return
	}
	g, _ := gssRuns.Get().(*gssRun)
	if g == nil {
		g = new(gssRun)
	}
	g.mk, g.sr, g.specMk = mk, sr, specMk
	w.Pool().RunLoop(w, &g.Loop, g, workers, from, to, step)
}

// Claim is one claimant's share of the loop (rtkit.LoopBody).
// Speculation adds the claimant's own journal, the failed-region fast
// path at every chunk claim, and panic capture, so a faulting iteration
// aborts the region instead of crashing the process.
func (g *gssRun) Claim(*rtkit.Worker) {
	sr := g.sr
	var body func(int64)
	if sr != nil {
		defer sr.CapturePanic()
		body = g.specMk(sr.NewJournal())
	} else {
		body = g.mk()
	}
	step := g.Step()
	for sr == nil || !sr.Failed() {
		start, end, ok := g.Next()
		if !ok {
			return
		}
		for i := start; i < end; i += step {
			body(i)
		}
	}
}

// Release recycles the record (rtkit.LoopBody).
func (g *gssRun) Release() {
	g.mk, g.sr, g.specMk = nil, nil, nil
	gssRuns.Put(g)
}

// Stdout buffering: generated programs print through here so output is
// buffered like the interpreter's (commuterun wraps os.Stdout) and so
// the driver can flush once at exit. The mutex makes stray prints from
// parallel code safe; the analysis marks print I/O, so proven-parallel
// extents never print and serial code pays an uncontended lock.
var (
	outMu sync.Mutex
	out   = bufio.NewWriter(os.Stdout)
)

// Print renders one print(...) builtin call: arguments separated by
// single spaces, newline-terminated, formatted exactly as the
// interpreter's printValue — ints via FormatInt, doubles via
// FormatFloat(v, 'g', -1, 64), TRUE/FALSE booleans, NULL for nil.
// Class-typed arguments are pre-formatted by the emitter (it knows the
// dynamic class) and arrive as strings.
func Print(args ...any) {
	outMu.Lock()
	defer outMu.Unlock()
	for i, a := range args {
		if i > 0 {
			out.WriteByte(' ')
		}
		out.WriteString(formatArg(a))
	}
	out.WriteByte('\n')
}

func formatArg(a any) string {
	switch v := a.(type) {
	case int64:
		return strconv.FormatInt(v, 10)
	case float64:
		return strconv.FormatFloat(v, 'g', -1, 64)
	case bool:
		if v {
			return "TRUE"
		}
		return "FALSE"
	case string:
		return v
	case nil:
		return "NULL"
	}
	return fmt.Sprint(a)
}

// FlushOut flushes buffered program output; drivers defer it in main.
func FlushOut() {
	outMu.Lock()
	defer outMu.Unlock()
	out.Flush()
}

// Dumper writes a deterministic textual dump of the program's object
// graph. The emitter generates a dmp_ method per class that walks
// fields in interpreter slot order, and the differential harness
// produces the same dump from the interpreter heap — byte-equal output
// means bit-identical state. Objects get stable IDs in first-visit
// order; revisits print a ref line instead of recursing, so cyclic and
// shared structures (the Barnes-Hut tree, body arrays) terminate and
// preserve aliasing in the dump.
type Dumper struct {
	w    *bufio.Writer
	seen map[any]int
	next int
}

// NewDumper returns a dumper writing to w.
func NewDumper(w io.Writer) *Dumper {
	return &Dumper{w: bufio.NewWriter(w), seen: make(map[any]int)}
}

// Begin starts an object: it prints either "path = class#id" (first
// visit, returns true — caller recurses into fields) or
// "path = ref#id" (already dumped, returns false). key must be the
// object's identity (a pointer).
func (d *Dumper) Begin(path string, key any, class string) bool {
	if id, ok := d.seen[key]; ok {
		fmt.Fprintf(d.w, "%s = ref#%d\n", path, id)
		return false
	}
	d.next++
	d.seen[key] = d.next
	fmt.Fprintf(d.w, "%s = %s#%d\n", path, class, d.next)
	return true
}

// Int dumps an integer slot.
func (d *Dumper) Int(path string, v int64) {
	fmt.Fprintf(d.w, "%s = int %d\n", path, v)
}

// Float dumps a double slot as its exact bit pattern plus a readable
// rendering; the bit pattern is what differential tests compare.
func (d *Dumper) Float(path string, v float64) {
	fmt.Fprintf(d.w, "%s = double 0x%016x (%s)\n",
		path, math.Float64bits(v), strconv.FormatFloat(v, 'g', -1, 64))
}

// Bool dumps a boolean slot.
func (d *Dumper) Bool(path string, v bool) {
	if v {
		fmt.Fprintf(d.w, "%s = bool TRUE\n", path)
	} else {
		fmt.Fprintf(d.w, "%s = bool FALSE\n", path)
	}
}

// Null dumps a nil pointer slot.
func (d *Dumper) Null(path string) {
	fmt.Fprintf(d.w, "%s = NULL\n", path)
}

// Flush flushes the dump to the underlying writer.
func (d *Dumper) Flush() error { return d.w.Flush() }
