package src

import "strings"

// apps is the one table of built-in applications, under the names
// commutec -app, commuterun -app and the daemon's "app" field take.
var apps = []struct{ name, file, source string }{
	{"barneshut", "barneshut.mc", BarnesHut},
	{"water", "water.mc", Water},
	{"graph", "graph.mc", Graph},
	// The §2 running example, as examples/quickstart runs it.
	{"quickstart", "graph.mc", Graph},
	{"specdisjoint", "specdisjoint.mc", SpecDisjoint},
	{"specconflict", "specconflict.mc", SpecConflict},
	// Guard-true mode: the table accumulates, the synthesized guard
	// (mode == 0) holds, and guarded regions run in parallel.
	{"condhash", "condhash.mc", CondHashBase + CondHashMain(0, 6)},
	// Guard-false mode: the table overwrites, the guard fails at region
	// entry, and every guarded region takes the serial path.
	{"condhash-serial", "condhash-serial.mc", CondHashBase + CondHashMain(3, 6)},
}

// App returns the built-in application called name: the file name its
// diagnostics carry and its program text.
func App(name string) (file, source string, ok bool) {
	for _, a := range apps {
		if a.name == name {
			return a.file, a.source, true
		}
	}
	return "", "", false
}

// AppNames lists the built-in applications, as help and error texts
// print them.
func AppNames() string {
	names := make([]string, len(apps))
	for i, a := range apps {
		names[i] = a.name
	}
	return strings.Join(names, ", ")
}
