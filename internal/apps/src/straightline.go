package src

import "strings"

// StraightLineRoot is a program whose one region root, driver::step,
// spawns two commuting updates and then runs fives five-unit and threes
// three-unit statements on a local (DASH cost units, as the interpreter
// charges them): a root of any size past its fixed part, to the unit,
// with no loop in it. The granularity cutoff's boundary tests generate
// roots just under and just over each runtime's region-entry cost with
// it; the final state is D.c->total = 3 whatever the padding.
func StraightLineRoot(fives, threes int) string {
	return `
class counter {
public:
  int total;
  void add(int v);
};

class driver {
public:
  counter *c;
  void init();
  void step();
};

driver D;

void counter::add(int v) {
  total = total + v;
}

void driver::init() {
  c = new counter;
}

void driver::step() {
  int x;
  c->add(1);
  c->add(2);
` + strings.Repeat("  x = x + 1;\n", fives) + strings.Repeat("  x = 1;\n", threes) + `}

void main() {
  D.init();
  D.step();
}
`
}

// StraightLinePadding splits units of work into the fives and threes
// StraightLineRoot takes: 5·fives + 3·threes = units, for units ≥ 8.
func StraightLinePadding(units int64) (fives, threes int) {
	t := (2 * units) % 5 // 3·t ≡ units (mod 5)
	return int((units - 3*t) / 5), int(t)
}
