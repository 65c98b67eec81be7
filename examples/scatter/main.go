// Scatter is a user-written application (not from the paper): particles
// deposit weighted charge into a shared grid — the classic scatter
// pattern. The per-cell accumulations commute (the analysis proves it
// with the array-update rules), so the deposit loop parallelizes
// automatically. A second variant overwrites a peak-tracking field with
// `=` instead of accumulating, and the analysis correctly rejects it —
// demonstrating that commutativity analysis distinguishes semantically
// safe reorderings from unsafe ones, not just syntactic patterns.
package main

import (
	"context"
	"fmt"
	"log"

	"commute"
)

const commutingVersion = `
const int NCELLS = 256;
const int NPART = 2048;

class grid {
public:
  double cells[NCELLS];
  void add(int c, double w) {
    cells[c] += w;
  }
};

class particle {
public:
  int cell;
  double charge;
  void deposit();
};

class sim {
public:
  int n;
  int seed;
  particle *parts[NPART];
  int nextRandom();
  void init(int k);
  void depositAll();
};

grid Grid;
sim Sim;

void particle::deposit() {
  Grid.add(cell, 0.75 * charge);
  Grid.add((cell + 1) % NCELLS, 0.25 * charge);
}

int sim::nextRandom() {
  seed = (seed * 1103515245 + 12345) % 2147483647;
  if (seed < 0) seed = -seed;
  return seed;
}

void sim::init(int k) {
  particle *p;
  n = k;
  for (int i = 0; i < k; i++) {
    p = new particle;
    parts[i] = p;
    p->cell = nextRandom() % NCELLS;
    p->charge = (nextRandom() % 1000) * 0.001;
  }
}

void sim::depositAll() {
  particle *p;
  for (int i = 0; i < n; i++) {
    p = parts[i];
    p->deposit();
  }
}

void main() {
  Sim.seed = 777;
  Sim.init(NPART);
  Sim.depositAll();
}
`

// nonCommutingVersion replaces the accumulation with an overwrite of a
// "last depositor" field: order now matters, and the analysis must
// reject the parallelization.
const nonCommutingVersion = `
const int NCELLS = 256;
const int NPART = 2048;

class grid {
public:
  double cells[NCELLS];
  int last;
  void add(int c, double w) {
    cells[c] += w;
    last = c;
  }
};

class particle {
public:
  int cell;
  double charge;
  void deposit();
};

class sim {
public:
  int n;
  particle *parts[NPART];
  void depositAll();
};

grid Grid;
sim Sim;

void particle::deposit() {
  Grid.add(cell, charge);
}

void sim::depositAll() {
  particle *p;
  for (int i = 0; i < n; i++) {
    p = parts[i];
    p->deposit();
  }
}

void main() {
  Sim.depositAll();
}
`

func main() {
	sys, err := commute.Load("scatter.mc", commutingVersion)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== scatter with commuting accumulation ==")
	r := sys.Report("sim::depositAll")
	if !r.Parallel {
		log.Fatalf("depositAll should be parallel: %s", r.Reason)
	}
	fmt.Printf("  sim::depositAll PARALLEL — per-cell accumulations commute\n")
	for _, pr := range r.Pairs {
		if !pr.Independent {
			fmt.Printf("  symbolically verified: commute(%s, %s)\n",
				pr.M1.FullName(), pr.M2.FullName())
		}
	}

	ipSerial, err := sys.RunSerial(nil)
	if err != nil {
		log.Fatal(err)
	}
	ipPar, _, err := sys.RunParallel(8, nil)
	if err != nil {
		log.Fatal(err)
	}
	var sTotal, pTotal float64
	for c := 0; c < 256; c++ {
		s, _ := sys.ReadFloat(ipSerial, fmt.Sprintf("Grid.cells[%d]", c))
		p, _ := sys.ReadFloat(ipPar, fmt.Sprintf("Grid.cells[%d]", c))
		sTotal += s
		pTotal += p
	}
	fmt.Printf("  total deposited charge: serial %.6f, parallel %.6f\n", sTotal, pTotal)

	tr, err := sys.Trace(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	base := commute.Simulate(tr, 1).TimeMicros
	fmt.Println("  simulated scaling (all deposits funnel through one grid object):")
	for _, p := range []int{1, 4, 16, 32} {
		res := commute.Simulate(tr, p)
		fmt.Printf("    %2dp %6.2fx (blocked %4.1f%%)\n",
			p, base/res.TimeMicros, 100*res.Breakdown.Blocked/res.Breakdown.Total())
	}

	fmt.Println("\n== scatter with a last-writer field (overwrite) ==")
	sys2, err := commute.Load("scatter2.mc", nonCommutingVersion)
	if err != nil {
		log.Fatal(err)
	}
	r2 := sys2.Report("sim::depositAll")
	if r2.Parallel {
		log.Fatal("depositAll must NOT be parallel with an overwritten field")
	}
	fmt.Printf("  sim::depositAll serial — %s\n", r2.Reason)
}
