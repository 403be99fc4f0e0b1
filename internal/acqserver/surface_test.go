// surface_test.go pins what the serving plane lets a caller set: the
// exported fields of the three server configs and of the frame-log
// cursor's start, and the cursor's start positions.  A setting added or
// removed shows up here as a reviewed diff.
package acqserver_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/acqserver"
	"repro/internal/framelog"
	"repro/internal/gateway"
)

// exportedFields lists the sorted exported field names of struct value v.
func exportedFields(v any) []string {
	var names []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(v)) {
		if f.IsExported() {
			names = append(names, f.Name)
		}
	}
	sort.Strings(names)
	return names
}

// constsOfType lists the sorted constants of the named type declared in
// the Go package in dir, following a const block's implicit repetition.
func constsOfType(t *testing.T, dir, typ string) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST {
					continue
				}
				var last ast.Expr
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					if vs.Type != nil || len(vs.Values) > 0 {
						last = vs.Type
					}
					if id, ok := last.(*ast.Ident); ok && id.Name == typ {
						for _, n := range vs.Names {
							names = append(names, n.Name)
						}
					}
				}
			}
		}
	}
	sort.Strings(names)
	return names
}

func TestConfigSurface(t *testing.T) {
	for _, c := range []struct {
		name string
		got  []string
		want string
	}{
		{"acqserver.Config", exportedFields(acqserver.Config{}),
			"CPUWorkersPerFrame CoalesceFillTarget CoalesceWindow DegradedMode FlightRecorder FrameLog " +
				"Logger MaxPeaks MaxTOFBins Metrics MinSNR Order QueueDepth Shards Trace WorkersPerShard"},
		{"gateway.Config", exportedFields(gateway.Config{}),
			"Backends FlightRecorder Logger Metrics Trace"},
		{"framelog.Config", exportedFields(framelog.Config{}),
			"Dir Fsync FsyncInterval JanitorInterval Logger Metrics RetainSegments Trace"},
		{"framelog.Start", exportedFields(framelog.Start{}), "From Seq"},
		{"framelog.StartPos", constsOfType(t, "../framelog", "StartPos"), "FromBeginning FromSeq"},
	} {
		if got := strings.Join(c.got, " "); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}
