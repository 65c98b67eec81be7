package main

// Output verification. The reference for every program is the serial
// tree walker — an interpreter that does not go through the closure
// compiler, the parallel runtime or the native emitter — so no engine
// is ever checked against itself.

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"

	"commute"
	"commute/internal/interp"
	"commute/internal/nativegen"
)

// floatTol is the repo's contract for parallel runs of the float
// applications (internal/nativegen/native_test.go): leaf by leaf within
// 1e-9 relative, because commuting float accumulations reorder.
const floatTol = 1e-9

// reference is the walker's result for one program.
type reference struct {
	out  string // print output
	dump string // full state dump, nativegen.DumpInterp format
}

// walkerReference runs the program on the serial tree walker. An error
// the walker returns (an over-sized Water or Graph indexes past its
// fixed arrays) is a broken input, never to be ignored.
func walkerReference(sys *commute.System) (reference, error) {
	var out bytes.Buffer
	ip, err := sys.RunSerialEngine(interp.EngineWalk, &out)
	if err != nil {
		return reference{}, fmt.Errorf("walker reference: %w", err)
	}
	return reference{out: out.String(), dump: dumpOf(sys, ip)}, nil
}

// checkEnginesAgree runs a program on the walker, on the compiled
// engine and in parallel on N workers, and compares what they print.
func checkEnginesAgree(lp *loadedProg) error {
	var want bytes.Buffer
	if _, err := lp.sys.RunSerialEngine(interp.EngineWalk, &want); err != nil {
		return fmt.Errorf("walker: %w", err)
	}
	for _, m := range []mode{modeSerial, modeParN} {
		_, out, _, _, err := runInterp(lp, m)
		if err == nil {
			err = sameText(want.String(), out, tolFor(lp.p, m.workers > 0))
		}
		if err != nil {
			return fmt.Errorf("%s vs walker: %w", m.name, err)
		}
	}
	return nil
}

func dumpOf(sys *commute.System, ip *interp.Interp) string {
	var b bytes.Buffer
	nativegen.DumpInterp(&b, sys.Prog, ip)
	return b.String()
}

// sameText compares a program's output or state dump with the
// reference. With tol == 0 the texts must be byte-identical; otherwise
// they must agree token by token, numeric tokens (plain literals and
// the dumper's 0x… float bit patterns) within tol relative.
func sameText(want, got string, tol float64) error {
	if want == got {
		return nil
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	if tol == 0 || len(wl) != len(gl) {
		for i := 0; i < len(wl) && i < len(gl); i++ {
			if wl[i] != gl[i] {
				return fmt.Errorf("line %d: want %q, got %q", i+1, wl[i], gl[i])
			}
		}
		return fmt.Errorf("want %d lines, got %d", len(wl), len(gl))
	}
	for i := range wl {
		if wl[i] == gl[i] {
			continue
		}
		wt, gt := strings.Fields(wl[i]), strings.Fields(gl[i])
		if len(wt) != len(gt) {
			return fmt.Errorf("line %d: want %q, got %q", i+1, wl[i], gl[i])
		}
		for j := range wt {
			if wt[j] == gt[j] {
				continue
			}
			wv, okw := parseNum(wt[j])
			gv, okg := parseNum(gt[j])
			if !okw || !okg || relErr(wv, gv) > tol {
				return fmt.Errorf("line %d: want %q, got %q", i+1, wl[i], gl[i])
			}
		}
	}
	return nil
}

func parseNum(tok string) (float64, bool) {
	tok = strings.TrimPrefix(strings.TrimSuffix(tok, ")"), "(")
	if strings.HasPrefix(tok, "0x") {
		bits, err := strconv.ParseUint(tok[2:], 16, 64)
		return math.Float64frombits(bits), err == nil
	}
	v, err := strconv.ParseFloat(tok, 64)
	return v, err == nil
}

func relErr(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// tolFor is the comparison tolerance for one (program, mode): only
// parallel runs of float-state programs may differ from the reference
// at all.
func tolFor(p program, parallel bool) float64 {
	if p.floatState && parallel {
		return floatTol
	}
	return 0
}

// tally counts operations attempted and failed. Any returned error,
// non-2xx status or output mismatch is a failed operation; the first
// few are kept to be printed.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	first     []string
}

// op records one attempted operation and returns whether it succeeded.
func (t *tally) op(what string, err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.first) < 10 {
		t.first = append(t.first, what+": "+err.Error())
	}
	return false
}

func (t *tally) report() {
	for _, f := range t.first {
		fmt.Fprintln(os.Stderr, "FAILED", f)
	}
}
