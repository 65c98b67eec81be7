package codegen

// Whole-package assembly: struct/interface declarations mirroring the
// interpreter's slot layout, per-class dump methods for differential
// state comparison, globals, and main.go.

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"commute/internal/frontend/types"
)

// alignRows writes one line per row, every cell but the row's last
// padded to one blank past the widest cell of its column: the layout
// gofmt's tabwriter gives a block of consecutive struct fields,
// grouped specs or key-value lines. Rows have equal cell counts.
func alignRows(b *bytes.Buffer, indent string, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	width := make([]int, len(rows[0])-1)
	for _, row := range rows {
		for i := range width {
			width[i] = max(width[i], len(row[i]))
		}
	}
	for _, row := range rows {
		b.WriteString(indent)
		for i, cell := range row {
			b.WriteString(cell)
			if i < len(width) {
				for n := len(cell); n <= width[i]; n++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
}

// assembleProg renders prog.go. Declarations are separated by one blank
// line and the file ends at the last one's closing line. Every version
// is emitted by now, so what the file imports is known.
func (e *goEmitter) assembleProg(entry variant) []byte {
	// The functions are most of the file; the rest is the header, a few
	// lines per class and one or two per field.
	rest := 2048
	for _, cl := range e.prog.ClassList {
		rest += 448 + 48*len(cl.Layout)
		for _, f := range cl.Layout {
			if _, ok := f.Type.(types.Array); ok {
				e.useStrconv = true // emitFieldDump indexes the element paths
			}
		}
	}
	var b bytes.Buffer
	b.Grow(e.fns.Len() + rest)

	b.WriteString("// Code generated by commutec -emit go (" + e.opts.AppName + "). DO NOT EDIT.\n")
	var proven []string
	for v, row := range versions {
		if !specVariant(variant(v)) {
			proven = append(proven, row.prefix)
		}
	}
	b.WriteString("//\n// Structs mirror the interpreter's object slot layout; " + strings.Join(proven, "/") + "\n")
	b.WriteString("// functions are the customized method versions the\n")
	b.WriteString("// commutativity analysis plan selects at each call site, and the\n")
	b.WriteString("// SJ_-prefixed family are their journaled twins for speculative\n")
	b.WriteString("// regions: every shared access goes through the task's\n")
	b.WriteString("// nativert.SpecJournal and commits only after validation.\n")
	b.WriteString("package main\n\nimport (\n")
	std := b.Len()
	if e.useMath {
		b.WriteString("\t\"math\"\n")
	}
	if e.useStrconv {
		b.WriteString("\t\"strconv\"\n")
	}
	if len(e.muRoots) > 0 {
		b.WriteString("\t\"sync\"\n")
	}
	if b.Len() > std {
		b.WriteString("\n") // a separator between groups, never a leading blank line
	}
	b.WriteString("\t\"commute/nativert\"\n")
	if e.useRtkit {
		b.WriteString("\t\"commute/rtkit\"\n")
	}
	b.WriteString(")\n\n")

	// Constants.
	if len(e.prog.Consts) > 0 {
		var names []string
		for name := range e.prog.Consts {
			names = append(names, name)
		}
		sort.Strings(names)
		var rows [][]string
		for _, name := range names {
			cv := e.prog.Consts[name]
			if cv.IsInt {
				rows = append(rows, []string{"C_" + name, "int64", "= " + strconv.FormatInt(cv.I, 10)})
			} else {
				rows = append(rows, []string{"C_" + name, "float64", "= " + formatFloatLit(cv.F)})
			}
		}
		b.WriteString("const (\n")
		alignRows(&b, "\t", rows)
		b.WriteString(")\n\n")
	}

	// Classes in declaration order: interface, struct, accessors,
	// dump method, then the demanded method versions in a fixed order.
	for _, cl := range e.prog.ClassList {
		e.emitClass(&b, cl)
		for _, m := range cl.Methods {
			e.emitVariants(&b, m)
		}
	}
	// Free functions in program order.
	for _, m := range e.prog.Methods {
		if m.Class == nil {
			e.emitVariants(&b, m)
		}
	}

	// Globals, initGlobals, dumpState, run_.
	if len(e.prog.GlobalSeq) > 0 {
		var rows [][]string
		for _, g := range e.prog.GlobalSeq {
			rows = append(rows, []string{"G_" + g.Name, "*T_" + g.Class.Name})
		}
		b.WriteString("var (\n")
		alignRows(&b, "\t", rows)
		b.WriteString(")\n\n")
	}
	if len(e.replicas) > 0 {
		var rows [][]string
		for _, g := range e.prog.GlobalSeq {
			if e.replicas[g] {
				rows = append(rows, []string{"rep_" + g.Name, "nativert.Replicas[T_" + g.Class.Name + "]"})
			}
		}
		b.WriteString("// Per-worker replicas of the globals replicated accumulations add\n")
		b.WriteString("// into; each region's join folds its own back.\n")
		b.WriteString("var (\n")
		alignRows(&b, "\t", rows)
		b.WriteString(")\n\n")
	}
	b.WriteString("// initGlobals allocates fresh zeroed global roots, as the\n")
	b.WriteString("// interpreter does before each run.\n")
	b.WriteString("func initGlobals() {\n")
	for _, g := range e.prog.GlobalSeq {
		fmt.Fprintf(&b, "\tG_%s = &T_%s{}\n", g.Name, g.Class.Name)
	}
	b.WriteString("}\n\n")

	b.WriteString("// dumpState walks the global object graph in declaration order;\n")
	b.WriteString("// the differential harness compares this byte-for-byte against the\n")
	b.WriteString("// interpreter heap.\n")
	b.WriteString("func dumpState(d *nativert.Dumper) {\n")
	for _, g := range e.prog.GlobalSeq {
		fmt.Fprintf(&b, "\t%s(d, %q, G_%s)\n", e.helperDmp(g.Class), "g."+g.Name, g.Name)
	}
	b.WriteString("}\n\n")

	fmt.Fprintf(&b, "func run_() {\n\t%smain()\n}\n", versions[entry].prefix)

	// Helpers, sorted by name.
	var hnames []string
	for name := range e.helpers {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		b.WriteString("\n")
		b.WriteString(e.helpers[name])
	}
	return b.Bytes()
}

// emitVariants appends every demanded version of m in table order.
func (e *goEmitter) emitVariants(b *bytes.Buffer, m *types.Method) {
	for v := range versions {
		if at, ok := e.fnAt[vkey{m, variant(v)}]; ok {
			b.Write(e.fns.Bytes()[at[0]:at[1]])
			b.WriteString("\n")
		}
	}
}

// emitClass appends the interface (when the class has subclasses),
// struct, as_/cls_ accessors, and the dump method for one class.
func (e *goEmitter) emitClass(b *bytes.Buffer, cl *types.Class) {
	name := cl.Name
	if e.hasSub[cl] {
		fmt.Fprintf(b, "type I_%s interface {\n", name)
		if cl.Base != nil {
			fmt.Fprintf(b, "\tI_%s\n", cl.Base.Name)
		} else {
			b.WriteString("\tcls_() string\n")
			b.WriteString("\tdmp_(d *nativert.Dumper, path string)\n")
		}
		fmt.Fprintf(b, "\tas_%s() *T_%s\n", name, name)
		b.WriteString("}\n\n")
	}

	fmt.Fprintf(b, "type T_%s struct {\n", name)
	if cl.Base != nil {
		fmt.Fprintf(b, "\tT_%s\n", cl.Base.Name)
	}
	var rows [][]string
	for _, f := range cl.Fields {
		rows = append(rows, []string{"F_" + f.Name, e.goType(f.Type, false)})
	}
	if e.muRoots[cl] {
		rows = append(rows, []string{"mu_", "sync.Mutex"})
	}
	alignRows(b, "\t", rows)
	b.WriteString("}\n\n")

	shortFunc(b, fmt.Sprintf("func (o *T_%s) as_%s() *T_%s", name, name, name), "return o")
	shortFunc(b, fmt.Sprintf("func (o *T_%s) cls_() string", name), "return "+strconv.Quote(name))

	fmt.Fprintf(b, "func (o *T_%s) dmp_(d *nativert.Dumper, path string) {\n", name)
	fmt.Fprintf(b, "\tif !d.Begin(path, o, %q) {\n\t\treturn\n\t}\n", name)
	for _, f := range cl.Layout {
		acc := "o.F_" + f.Name
		if f.Class != cl {
			acc = "o.as_" + f.Class.Name + "().F_" + f.Name
		}
		e.emitFieldDump(b, f, acc)
	}
	b.WriteString("}\n\n")
	e.emitFold(b, cl)
}

// emitFold appends fold_, the join of a class some used replica table
// holds: it adds the fields replicated accumulations write (Plan.Folds)
// from a replica into the object and zeroes them in the replica.
func (e *goEmitter) emitFold(b *bytes.Buffer, cl *types.Class) {
	used := false
	for g := range e.replicas {
		used = used || g.Class == cl
	}
	if !used {
		return
	}
	fmt.Fprintf(b, "func (o *T_%s) fold_(r *T_%s) {\n", cl.Name, cl.Name)
	for _, f := range e.plan.Folds[cl] {
		acc := "F_" + f.Name
		if f.Class != cl {
			acc = "as_" + f.Class.Name + "().F_" + f.Name
		}
		if _, array := f.Type.(types.Array); array {
			fmt.Fprintf(b, "\tfor i_ := range r.%s {\n\t\to.%[1]s[i_] += r.%[1]s[i_]\n\t\tr.%[1]s[i_] = 0\n\t}\n", acc)
			continue
		}
		fmt.Fprintf(b, "\to.%s += r.%[1]s\n\tr.%[1]s = 0\n", acc)
	}
	b.WriteString("}\n\n")
}

// shortFunc appends a one-statement function the way gofmt leaves it:
// on one line while header and statement together fit in 100 bytes
// (funcBody in go/printer/nodes.go), on three otherwise.
func shortFunc(b *bytes.Buffer, header, stmt string) {
	if len(header)+len(stmt) <= 100 {
		b.WriteString(header + " { " + stmt + " }\n\n")
	} else {
		b.WriteString(header + " {\n\t" + stmt + "\n}\n\n")
	}
}

// emitFieldDump appends the dump statement(s) for one field slot.
func (e *goEmitter) emitFieldDump(b *bytes.Buffer, f *types.Field, acc string) {
	path := fmt.Sprintf("path+%q", "."+f.Name)
	switch tt := f.Type.(type) {
	case types.Basic:
		switch tt {
		case types.Int:
			fmt.Fprintf(b, "\td.Int(%s, %s)\n", path, acc)
		case types.Double:
			fmt.Fprintf(b, "\td.Float(%s, %s)\n", path, acc)
		case types.Bool:
			fmt.Fprintf(b, "\td.Bool(%s, %s)\n", path, acc)
		}
	case types.Pointer:
		fmt.Fprintf(b, "\t%s(d, %s, %s)\n", e.helperDmp(tt.Class), path, acc)
	case types.Object:
		fmt.Fprintf(b, "\t%s.dmp_(d, %s)\n", acc, path)
	case types.Array:
		// assembleProg has imported strconv, from the layouts.
		fmt.Fprintf(b, "\tfor i_ := 0; i_ < %d; i_++ {\n", tt.Len)
		epath := fmt.Sprintf("path+%q+strconv.Itoa(i_)+\"]\"", "."+f.Name+"[")
		switch et := tt.Elem.(type) {
		case types.Basic:
			switch et {
			case types.Int:
				fmt.Fprintf(b, "\t\td.Int(%s, %s[i_])\n", epath, acc)
			case types.Double:
				fmt.Fprintf(b, "\t\td.Float(%s, %s[i_])\n", epath, acc)
			case types.Bool:
				fmt.Fprintf(b, "\t\td.Bool(%s, %s[i_])\n", epath, acc)
			}
		case types.Pointer:
			fmt.Fprintf(b, "\t\t%s(d, %s, %s[i_])\n", e.helperDmp(et.Class), epath, acc)
		case types.Object:
			fmt.Fprintf(b, "\t\t%s[i_].dmp_(d, %s)\n", acc, epath)
		default:
			e.errorf("class %s field %s: unsupported array element type %v in dump", f.Class.Name, f.Name, tt.Elem)
		}
		b.WriteString("\t}\n")
	default:
		e.errorf("class %s field %s: unsupported field type %v in dump", f.Class.Name, f.Name, f.Type)
	}
}

// assembleMain renders main.go: the program's nativert.Driver — the
// run's policy, worker count and entry counters, which prog.go's R_
// wrappers and parallel loops read as rt_ — and a main that hands the
// driver the program. The flags, the exit codes and the -dump, -bench and
// counter output are nativert's (Driver.Main). EmitGoPackage has refused
// an app name with a line break in it.
func (e *goEmitter) assembleMain() []byte {
	return []byte("// Code generated by commutec -emit go (" + e.opts.AppName + "). DO NOT EDIT.\n" + mainSrc)
}

const mainSrc = `package main

import "commute/nativert"

var rt_ nativert.Driver

func main() { rt_.Main(initGlobals, run_, dumpState) }
`
