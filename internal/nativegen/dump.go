package nativegen

import (
	"io"
	"strconv"

	"commute/internal/codegen"
	"commute/internal/frontend/types"
	"commute/internal/interp"
	"commute/nativert"
)

func codegenOpts(app string) codegen.EmitGoOptions {
	return codegen.EmitGoOptions{
		Module:      "nativeapp",
		CommutePath: CommuteRoot(),
		AppName:     app,
	}
}

// DumpInterp writes the interpreter's final global state in exactly the
// format the generated dumpState/-dump path produces: same traversal
// (globals in declaration order, fields in slot order), same object
// numbering, same value formatting. Byte equality of the two dumps is
// the differential harness's correctness criterion.
func DumpInterp(w io.Writer, prog *types.Program, ip *interp.Interp) {
	d := nativert.NewDumper(w)
	for _, g := range prog.GlobalSeq {
		dumpObj(d, "g."+g.Name, ip.Globals[g.Name])
	}
	d.Flush()
}

func dumpObj(d *nativert.Dumper, path string, o *interp.Object) {
	if o == nil {
		d.Null(path)
		return
	}
	if !d.Begin(path, o, o.Class.Name) {
		return
	}
	for i, f := range o.Class.Layout {
		dumpVal(d, path+"."+f.Name, o.Slots[i])
	}
}

func dumpVal(d *nativert.Dumper, path string, v interp.Value) {
	switch v.Kind() {
	case interp.KInt:
		d.Int(path, v.Int())
	case interp.KFloat:
		d.Float(path, v.Float())
	case interp.KBool:
		d.Bool(path, v.Bool())
	case interp.KObject:
		dumpObj(d, path, v.Object())
	case interp.KArray:
		for i, el := range v.Array().Elems {
			dumpVal(d, path+"["+strconv.Itoa(i)+"]", el)
		}
	default:
		d.Null(path)
	}
}
