package codegen

// Whole-package assembly: struct/interface declarations mirroring the
// interpreter's slot layout, per-class dump methods for differential
// state comparison, globals, and main.go.

import (
	"bytes"
	"sort"
	"strconv"

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

// assembleProg renders prog.go into scratch and returns a copy of it.
// Declarations are separated by one blank line and the file ends at the
// last one's closing line. Every version is emitted by now, so what the
// file imports is known.
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
	b := getScratch()
	defer scratch.Put(b)
	b.Grow(e.fns.Len() + rest)

	write(b, "// Code generated by commutec -emit go (", e.opts.AppName, "). DO NOT EDIT.\n//\n// Structs mirror the interpreter's object slot layout; ")
	sep := ""
	for v, row := range versions {
		if !specVariant(variant(v)) {
			write(b, sep, row.prefix)
			sep = "/"
		}
	}
	b.WriteString("\n")
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
		var rows [][]string
		for _, name := range e.prog.ConstNames {
			cv := e.prog.Consts[name]
			if cv.IsInt {
				rows = append(rows, []string{"C_" + name, "int64", "= " + strconv.FormatInt(cv.I, 10)})
			} else {
				rows = append(rows, []string{"C_" + name, "float64", "= " + string(appendFloatLit(nil, cv.F))})
			}
		}
		b.WriteString("const (\n")
		alignRows(b, "\t", rows)
		b.WriteString(")\n\n")
	}

	// Classes in declaration order: interface, struct, accessors,
	// dump method, then the demanded method versions in a fixed order.
	for _, cl := range e.prog.ClassList {
		e.emitClass(b, cl)
		for _, m := range cl.Methods {
			e.emitVariants(b, m)
		}
	}
	// Free functions in program order.
	for _, m := range e.prog.Methods {
		if m.Class == nil {
			e.emitVariants(b, m)
		}
	}

	// Globals, initGlobals, dumpState, run_.
	if len(e.prog.GlobalSeq) > 0 {
		var rows [][]string
		for _, g := range e.prog.GlobalSeq {
			rows = append(rows, []string{"G_" + g.Name, "*T_" + g.Class.Name})
		}
		b.WriteString("var (\n")
		alignRows(b, "\t", rows)
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
		alignRows(b, "\t", rows)
		b.WriteString(")\n\n")
	}
	b.WriteString("// initGlobals allocates fresh zeroed global roots, as the\n")
	b.WriteString("// interpreter does before each run.\n")
	b.WriteString("func initGlobals() {\n")
	for _, g := range e.prog.GlobalSeq {
		write(b, "\tG_", g.Name, " = &T_", g.Class.Name, "{}\n")
	}
	b.WriteString("}\n\n")

	b.WriteString("// dumpState walks the global object graph in declaration order;\n")
	b.WriteString("// the differential harness compares this byte-for-byte against the\n")
	b.WriteString("// interpreter heap.\n")
	b.WriteString("func dumpState(d *nativert.Dumper) {\n")
	for _, g := range e.prog.GlobalSeq {
		b.WriteString("\t")
		e.helperDmp(b, g.Class)
		write(b, "(d, \"g.", g.Name, "\", G_", g.Name, ")\n") // a global's name needs no escapes
	}
	b.WriteString("}\n\n")

	write(b, "func run_() {\n\t", versions[entry].prefix, "main()\n}\n")

	// Helpers, sorted by name.
	hnames := make([]string, 0, len(e.helpers))
	for name := range e.helpers {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		b.WriteString("\n")
		b.WriteString(e.helpers[name])
	}
	return bytes.Clone(b.Bytes())
}

// emitVariants appends every demanded version of m in table order.
func (e *goEmitter) emitVariants(b *bytes.Buffer, m *types.Method) {
	for v := range versions {
		if i := e.demanded[demandKey(m, variant(v))]; i > 0 {
			b.Write(e.fns.Bytes()[e.queue[i-1].start:e.queue[i-1].end])
			b.WriteString("\n")
		}
	}
}

// emitClass appends the interface (when the class has subclasses),
// struct, as_/cls_ accessors, and the dump method for one class.
func (e *goEmitter) emitClass(b *bytes.Buffer, cl *types.Class) {
	name := cl.Name
	if e.hasSub[cl] {
		write(b, "type I_", name, " interface {\n")
		if cl.Base != nil {
			write(b, "\tI_", cl.Base.Name, "\n")
		} else {
			b.WriteString("\tcls_() string\n")
			b.WriteString("\tdmp_(d *nativert.Dumper, path string)\n")
		}
		write(b, "\tas_", name, "() *T_", name, "\n}\n\n")
	}

	write(b, "type T_", name, " struct {\n")
	if cl.Base != nil {
		write(b, "\tT_", cl.Base.Name, "\n")
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

	// A class name is an identifier: quoted, it needs no escapes.
	shortFunc(b, []string{"func (o *T_", name, ") as_", name, "() *T_", name}, "return o")
	shortFunc(b, []string{"func (o *T_", name, ") cls_() string"}, `return "`, name, `"`)

	write(b, "func (o *T_", name, ") dmp_(d *nativert.Dumper, path string) {\n")
	write(b, "\tif !d.Begin(path, o, \"", name, "\") {\n\t\treturn\n\t}\n")
	for _, f := range cl.Layout {
		e.emitFieldDump(b, cl, f)
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
	write(b, "func (o *T_", cl.Name, ") fold_(r *T_", cl.Name, ") {\n")
	for _, f := range e.plan.Folds[cl] {
		acc := "F_" + f.Name
		if f.Class != cl {
			acc = "as_" + f.Class.Name + "().F_" + f.Name
		}
		if _, array := f.Type.(types.Array); array {
			write(b, "\tfor i_ := range r.", acc, " {\n\t\to.", acc, "[i_] += r.", acc, "[i_]\n\t\tr.", acc, "[i_] = 0\n\t}\n")
			continue
		}
		write(b, "\to.", acc, " += r.", acc, "\n\tr.", acc, " = 0\n")
	}
	b.WriteString("}\n\n")
}

// shortFunc appends a one-statement function the way gofmt leaves it:
// on one line while header and statement together fit in 100 bytes
// (funcBody in go/printer/nodes.go), on three otherwise.
func shortFunc(b *bytes.Buffer, header []string, stmt ...string) {
	n := 0
	for _, s := range header {
		n += len(s)
	}
	for _, s := range stmt {
		n += len(s)
	}
	open, end := " { ", " }\n\n"
	if n > 100 {
		open, end = " {\n\t", "\n}\n\n"
	}
	write(b, header...)
	b.WriteString(open)
	write(b, stmt...)
	b.WriteString(end)
}

// dumpKind names the Dumper method of each basic field type.
var dumpKind = map[types.Basic]string{types.Int: "Int", types.Double: "Float", types.Bool: "Bool"}

// emitFieldDump appends the dump statement(s) for one field slot of cl,
// an array's in a loop over its elements. Its paths and accessors are
// written from identifiers, which need no escapes inside quotes.
func (e *goEmitter) emitFieldDump(b *bytes.Buffer, cl *types.Class, f *types.Field) {
	t, indent, idx := f.Type, "\t", ""
	if at, ok := t.(types.Array); ok {
		// assembleProg has imported strconv, from the layouts.
		b.WriteString("\tfor i_ := 0; i_ < ")
		b.Write(strconv.AppendInt(b.AvailableBuffer(), int64(at.Len), 10))
		b.WriteString("; i_++ {\n")
		t, indent, idx = at.Elem, "\t\t", "[i_]"
	}
	acc := func(tail ...string) {
		if b.WriteString("o."); f.Class != cl {
			write(b, "as_", f.Class.Name, "().")
		}
		write(b, "F_", f.Name, idx)
		write(b, tail...)
	}
	path := func(tail string) {
		if write(b, `path+".`, f.Name); idx != "" {
			write(b, `["+strconv.Itoa(i_)+"]"`, tail)
		} else {
			write(b, `"`, tail)
		}
	}
	switch tt := t.(type) {
	case types.Basic:
		if k := dumpKind[tt]; k != "" {
			write(b, indent, "d.", k, "(")
			path(", ")
			acc(")\n")
		}
	case types.Pointer:
		b.WriteString(indent)
		e.helperDmp(b, tt.Class)
		b.WriteString("(d, ")
		path(", ")
		acc(")\n")
	case types.Object:
		b.WriteString(indent)
		acc(".dmp_(d, ")
		path(")\n")
	default:
		what := "field"
		if idx != "" {
			what = "array element"
		}
		e.errorf("class %s field %s: unsupported %s type %v in dump", f.Class.Name, f.Name, what, t)
	}
	if idx != "" {
		b.WriteString("\t}\n")
	}
}

// assembleMain renders main.go: the program's nativert.Driver — the
// run's policy, worker count and entry counters, which prog.go's R_
// wrappers and parallel loops read as rt_ — and a main that hands the
// driver the program. The flags, the exit codes and the -dump, -bench and
// counter output are nativert's (Driver.Main). EmitGoPackage has refused
// an app name with a line break in it.
func (e *goEmitter) assembleMain() []byte {
	const head, tail = "// Code generated by commutec -emit go (", "). DO NOT EDIT.\n"
	b := make([]byte, 0, len(head)+len(e.opts.AppName)+len(tail)+len(mainSrc))
	return append(append(append(append(b, head...), e.opts.AppName...), tail...), mainSrc...)
}

const mainSrc = `package main

import "commute/nativert"

var rt_ nativert.Driver

func main() { rt_.Main(initGlobals, run_, dumpState) }
`
