// Barneshut runs the full pipeline on the paper's headline application:
// the compiler analyzes the Barnes-Hut N-body solver, finds the force,
// velocity, position, and reset phases parallel (the tree construction
// stays serial), executes the generated parallel code on real
// goroutines, and projects the scaling on the simulated 32-processor
// machine.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"commute"
	"commute/internal/apps"
)

func main() {
	bodies := flag.Int("bodies", 512, "number of bodies")
	steps := flag.Int("steps", 2, "timesteps")
	workers := flag.Int("workers", 4, "goroutine workers for the real parallel run")
	flag.Parse()

	sys, err := apps.BarnesHut(*bodies, *steps)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("== Barnes-Hut, %d bodies, %d steps ==\n\n", *bodies, *steps)
	fmt.Println("analysis:")
	for _, name := range []string{
		"nbody::computeForces", "nbody::advanceVelocities",
		"nbody::advancePositions", "nbody::resetForces",
		"nbody::buildTree", "nbody::computeCOM",
	} {
		r := sys.Report(name)
		status := "serial"
		if r.Parallel {
			status = fmt.Sprintf("PARALLEL (extent %d, %d aux sites)", r.ExtentSize, r.AuxiliaryCallSites)
		}
		fmt.Printf("  %-26s %s\n", name, status)
	}

	// Serial and parallel executions must agree (up to floating-point
	// reassociation of the commuting additions).
	ipSerial, err := sys.RunSerial(nil)
	if err != nil {
		log.Fatal(err)
	}
	ipPar, stats, err := sys.RunParallel(*workers, nil)
	if err != nil {
		log.Fatal(err)
	}
	sPhi, _ := sys.ReadFloat(ipSerial, "Nbody.bodies[0].phi")
	pPhi, _ := sys.ReadFloat(ipPar, "Nbody.bodies[0].phi")
	fmt.Printf("\nreal parallel run (%d workers): %d loop iterations, %d lock acquisitions\n",
		*workers, stats.Iterations, stats.LockAcquires)
	fmt.Printf("  body[0].phi  serial %.9f  parallel %.9f\n", sPhi, pPhi)

	// Simulated DASH scaling.
	tr, err := sys.Trace(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsimulated multiprocessor:")
	base := commute.Simulate(tr, 1).TimeMicros
	for _, p := range []int{1, 2, 4, 8, 16, 32} {
		res := commute.Simulate(tr, p)
		fmt.Printf("  %2d procs: %8.3f s  (%.2fx)   serial idle %5.1f%%\n",
			p, res.TimeMicros/1e6, base/res.TimeMicros,
			100*res.Breakdown.SerialIdle/res.Breakdown.Total())
	}
	fmt.Println("\nthe serial tree build bounds the speedup (Amdahl), exactly as in the paper")
}
