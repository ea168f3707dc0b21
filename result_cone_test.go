package rmalocks_test

// The result cone is every package a cell's result can depend on: the
// import closure of internal/sweep, minus internal/obs (instruments that
// observe a run and never feed a Report). A result must be a pure
// function of the cell's inputs, so no code in the cone may read the
// host: the clock, the environment, the network, the runtime's state or
// the global random source. TestResultConeImports checks that from the
// source alone (go/parser), naming the file and line of each violation.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

const modulePath = "rmalocks"

// resultCone pins the cone's packages: a package that enters or leaves
// it is a visible change to this list.
var resultCone = []string{
	"rmalocks/internal/dht",
	"rmalocks/internal/fault",
	"rmalocks/internal/locks",
	"rmalocks/internal/locks/dmcs",
	"rmalocks/internal/locks/fompi",
	"rmalocks/internal/locks/rmamcs",
	"rmalocks/internal/locks/rmarw",
	"rmalocks/internal/rma",
	"rmalocks/internal/scheme",
	"rmalocks/internal/sim",
	"rmalocks/internal/sim/refsim",
	"rmalocks/internal/spinwait",
	"rmalocks/internal/stats",
	"rmalocks/internal/sweep",
	"rmalocks/internal/topology",
	"rmalocks/internal/trace",
	"rmalocks/internal/workload",
}

// hostImport reports whether an import path reads the host: the clock,
// the process environment and files, the network or the runtime's
// state.
func hostImport(path string) bool {
	for _, p := range []string{"time", "os", "net", "runtime"} {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// hostImportSites lists the files of the cone allowed one host import
// each, keyed "file import". None of them reaches a Report.
var hostImportSites = map[string]bool{
	// A rank's panic carries its stack into the run's error.
	"internal/sim/sim.go runtime/debug":           true,
	"internal/sim/refsim/refsim.go runtime/debug": true,
	// ForEach sizes its worker pool by GOMAXPROCS.
	"internal/sweep/sweep.go runtime": true,
	// Golden tables and run files are read and written as files.
	"internal/sweep/golden.go os":  true,
	"internal/sweep/persist.go os": true,
}

// seededRand is what the cone may name in math/rand: constructors of
// and types for an explicitly seeded source. Every other selector is a
// top-level function drawing from the process-global source.
var seededRand = map[string]bool{"New": true, "NewSource": true, "Rand": true, "Source": true, "Source64": true}

func TestResultConeImports(t *testing.T) {
	fset := token.NewFileSet()
	seen := map[string]bool{}
	queue := []string{modulePath + "/internal/sweep"}
	used := map[string]bool{}
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		if seen[pkg] || pkg == modulePath+"/internal/obs" {
			continue
		}
		seen[pkg] = true
		dir := strings.TrimPrefix(pkg, modulePath+"/")
		for _, f := range parseNonTest(t, fset, dir) {
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				pos := fset.Position(imp.Pos())
				switch {
				case strings.HasPrefix(path, modulePath+"/"):
					queue = append(queue, path)
				case hostImport(path):
					site := filepath.ToSlash(pos.Filename) + " " + path
					if hostImportSites[site] {
						used[site] = true
					} else {
						t.Errorf("%s:%d: imports %q, which reads the host; a result must depend on the cell's inputs alone", pos.Filename, pos.Line, path)
					}
				case path == "math/rand":
					checkRandSelectors(t, fset, f, imp)
				}
			}
		}
	}
	got := make([]string, 0, len(seen))
	for pkg := range seen {
		got = append(got, pkg)
	}
	slices.Sort(got)
	if !slices.Equal(got, resultCone) {
		t.Errorf("result cone changed; update resultCone if intended:\n  have %v\n  want %v", got, resultCone)
	}
	for site := range hostImportSites {
		if !used[site] {
			t.Errorf("host import site %q no longer imports it; drop it from hostImportSites", site)
		}
	}
}

// checkRandSelectors flags every use in f of a math/rand name outside
// seededRand, however the import is named.
func checkRandSelectors(t *testing.T, fset *token.FileSet, f *ast.File, imp *ast.ImportSpec) {
	t.Helper()
	name := "rand"
	if imp.Name != nil {
		name = imp.Name.Name
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); ok && x.Name == name && x.Obj == nil && !seededRand[sel.Sel.Name] {
			pos := fset.Position(sel.Pos())
			t.Errorf("%s:%d: rand.%s draws from the global source; use the rank's seeded *rand.Rand", pos.Filename, pos.Line, sel.Sel.Name)
		}
		return true
	})
}

// parseNonTest parses every non-test Go file of dir, whatever its build
// constraints: a file the host build skips is still in the cone on
// another.
func parseNonTest(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}
