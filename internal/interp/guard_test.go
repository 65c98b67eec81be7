package interp_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"commute/internal/interp"
)

// TestStepBudgetStopsInfiniteLoop: an infinite while loop exhausts
// MaxSteps and returns a RuntimeError instead of hanging.
func TestStepBudgetStopsInfiniteLoop(t *testing.T) {
	prog := compile(t, `
void main() {
  int x;
  x = 0;
  while (x < 1) {
    x = x * 1;
  }
}
`)
	ip := interp.New(interp.Compile(prog), nil)
	ctx := ip.NewCtx()
	ctx.MaxSteps = 10000
	err := ip.Run(ctx)
	if err == nil {
		t.Fatal("infinite loop terminated without error")
	}
	var re *interp.RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T %v, want *RuntimeError", err, err)
	}
	if !strings.Contains(err.Error(), "step budget") {
		t.Errorf("err = %v, want a step-budget message", err)
	}
}

// TestInterruptStopsInfiniteLoop: the interrupt hook aborts a tight
// loop promptly with the hook's error.
func TestInterruptStopsInfiniteLoop(t *testing.T) {
	prog := compile(t, `
void main() {
  int x;
  x = 0;
  while (x < 1) {
    x = x * 1;
  }
}
`)
	ip := interp.New(interp.Compile(prog), nil)
	ctx := ip.NewCtx()
	sentinel := errors.New("stop now")
	deadline := time.Now().Add(50 * time.Millisecond)
	ctx.Interrupt = func() error {
		if time.Now().After(deadline) {
			return sentinel
		}
		return nil
	}
	start := time.Now()
	err := ip.Run(ctx)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the interrupt sentinel", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("interrupt took %v to stop the loop", elapsed)
	}
}

// TestInterruptNotPolledOnShortPrograms: a program shorter than the
// poll stride never invokes the hook (the hook must not be a per-
// statement cost).
func TestInterruptNotPolledOnShortPrograms(t *testing.T) {
	prog := compile(t, `
void main() {
  int x;
  x = 1;
}
`)
	ip := interp.New(interp.Compile(prog), nil)
	ctx := ip.NewCtx()
	polled := false
	ctx.Interrupt = func() error { polled = true; return nil }
	if err := ip.Run(ctx); err != nil {
		t.Fatalf("run: %v", err)
	}
	if polled {
		t.Error("interrupt hook polled within the first stride")
	}
}

// TestRecursionDepthGuard: unbounded recursion returns a RuntimeError
// at the depth limit instead of overflowing the goroutine stack.
func TestRecursionDepthGuard(t *testing.T) {
	prog := compile(t, `
class r {
public:
  int n;
  void spin(int v);
};
r R;
void r::spin(int v) {
  n = n + 1;
  this->spin(v + 1);
}
void main() {
  R.spin(0);
}
`)
	ip := interp.New(interp.Compile(prog), nil)
	err := ip.Run(ip.NewCtx())
	if err == nil {
		t.Fatal("unbounded recursion terminated without error")
	}
	if !strings.Contains(err.Error(), "recursion depth limit") {
		t.Errorf("err = %v, want a recursion-depth message", err)
	}
}

// TestRecursionDepthGuardCustomLimit: MaxDepth overrides the default,
// and bounded recursion under the limit still succeeds.
func TestRecursionDepthGuardCustomLimit(t *testing.T) {
	source := `
class r {
public:
  int n;
  void down(int v);
};
r R;
void r::down(int v) {
  n = n + 1;
  if (v > 0) {
    this->down(v - 1);
  }
}
void main() {
  R.down(50);
}
`
	prog := compile(t, source)

	code := interp.Compile(prog)
	ip := interp.New(code, nil)
	ctx := ip.NewCtx()
	ctx.MaxDepth = 20
	if err := ip.Run(ctx); err == nil {
		t.Fatal("recursion past MaxDepth=20 succeeded")
	}

	ip = interp.New(code, nil)
	ctx = ip.NewCtx()
	ctx.MaxDepth = 200
	if err := ip.Run(ctx); err != nil {
		t.Fatalf("recursion of 50 under MaxDepth=200 failed: %v", err)
	}
}
