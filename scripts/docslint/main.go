// Command docslint fails when exported identifiers in the given package
// directories lack doc comments — the documentation gate run by `make
// docslint` (godoc hygiene is part of the observability layer's contract:
// every exported metric entry point must say what it records).
//
// Usage:
//
//	docslint [-metrics-doc FILE] DIR [DIR...]
//
// Each DIR is parsed as one package (tests excluded); every exported
// top-level type, function, method, var and const must carry a doc comment.
// Offenders are listed as file:line: name and the exit status is 1.
//
// With -metrics-doc, the same directories are also scanned for telemetry
// family registrations — string-literal first arguments to Counter, Gauge
// and Histogram calls — and every family name found in code must appear in
// the given catalogue document (docs/OBSERVABILITY.md).  A metric exported
// by code but missing from the catalogue fails the gate: the catalogue is
// the operator's contract, and silent families rot it.  So does the
// reverse: every family the catalogue's tables list (backticked names in
// the first column of a "| Metric |" table; names containing * are patterns
// and are skipped) must be registered by one of the scanned packages, or a
// deleted family's row outlives it.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strings"
)

func main() {
	metricsDoc := flag.String("metrics-doc", "", "metric catalogue markdown; every family registered in code must be named in it")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: docslint [-metrics-doc FILE] DIR [DIR...]")
		os.Exit(2)
	}
	bad := 0
	families := map[string][]string{} // family name -> registration sites
	for _, dir := range flag.Args() {
		n, err := lintDir(dir, families)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docslint: %v\n", err)
			os.Exit(2)
		}
		bad += n
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "docslint: %d exported identifier(s) without doc comments\n", bad)
		os.Exit(1)
	}
	if *metricsDoc != "" {
		doc, err := os.ReadFile(*metricsDoc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docslint: %v\n", err)
			os.Exit(2)
		}
		if missing, stale := checkCatalogue(*metricsDoc, string(doc), families); missing+stale > 0 {
			fmt.Fprintf(os.Stderr, "docslint: %d metric familie(s) missing from %s, %d listed there but registered nowhere\n",
				missing, *metricsDoc, stale)
			os.Exit(1)
		}
	}
}

// checkCatalogue reports every registered family name that the catalogue
// text never mentions (missing), and every family its tables list that no
// scanned package registers (stale).
func checkCatalogue(path, text string, families map[string][]string) (missing, stale int) {
	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !strings.Contains(text, name) {
			for _, site := range families[name] {
				fmt.Printf("%s: metric family %q not in %s\n", site, name, path)
			}
			missing++
		}
	}
	for _, name := range catalogueFamilies(text) {
		if _, ok := families[name]; !ok {
			fmt.Printf("%s: metric family %q is registered by no scanned package\n", path, name)
			stale++
		}
	}
	return missing, stale
}

// catalogueFamilies returns the family names the catalogue's tables list:
// every backticked name in the first column of a table whose header row
// begins "| Metric |", without its {label} suffix.  A name containing * is
// a pattern, not a family, and is skipped.
func catalogueFamilies(text string) []string {
	var names []string
	inTable := false
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "| Metric |"):
			inTable = true
		case !strings.HasPrefix(line, "|"):
			inTable = false
		case inTable:
			cell, _, _ := strings.Cut(line[1:], "|")
			quoted := strings.Split(cell, "`")
			for i := 1; i < len(quoted); i += 2 { // odd pieces sit between backticks
				name, _, _ := strings.Cut(quoted[i], "{")
				if !strings.Contains(name, "*") {
					names = append(names, name)
				}
			}
		}
	}
	return names
}

// lintDir checks one package directory, reporting each undocumented
// exported identifier and collecting metric-family registrations into
// families (name -> file:line sites).
func lintDir(dir string, families map[string][]string) (int, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return 0, err
	}
	bad := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				bad += lintDecl(fset, decl)
			}
			collectFamilies(fset, f, families)
		}
	}
	return bad, nil
}

// collectFamilies records every Counter/Gauge/Histogram call whose family
// name is a string literal.  Calls with computed names are skipped — they
// cannot be matched against a static catalogue.
func collectFamilies(fset *token.FileSet, f *ast.File, families map[string][]string) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Counter", "Gauge", "Histogram":
		default:
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING || len(lit.Value) < 2 {
			return true
		}
		name := strings.Trim(lit.Value, "`\"")
		if name == "" {
			return true
		}
		families[name] = append(families[name], fset.Position(call.Pos()).String())
		return true
	})
}

// lintDecl reports the undocumented exported identifiers of one top-level
// declaration.
func lintDecl(fset *token.FileSet, decl ast.Decl) int {
	bad := 0
	report := func(pos token.Pos, name string) {
		fmt.Printf("%s: %s\n", fset.Position(pos), name)
		bad++
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() && d.Doc == nil {
			name := d.Name.Name
			if d.Recv != nil && len(d.Recv.List) > 0 {
				name = recvName(d.Recv.List[0].Type) + "." + name
			}
			report(d.Pos(), name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
					report(s.Pos(), s.Name.Name)
				}
			case *ast.ValueSpec:
				// A doc comment on the grouped decl covers its specs;
				// otherwise each exported spec needs its own.
				if d.Doc != nil || s.Doc != nil || s.Comment != nil {
					continue
				}
				for _, n := range s.Names {
					if n.IsExported() {
						report(n.Pos(), n.Name)
					}
				}
			}
		}
	}
	return bad
}

// recvName renders a method receiver type for the report.
func recvName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvName(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr:
		return recvName(t.X)
	}
	return "?"
}
