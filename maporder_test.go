package repro

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"strings"
	"testing"
)

// mapOrderPackages are the packages that write transcripts and
// configuration text: the prompts, the model's configurations, the
// printers and parsers, the humanized findings and the repair loop.
var mapOrderPackages = []string{
	"internal/modularizer", "internal/llm", "internal/cisco",
	"internal/juniper", "internal/humanizer", "internal/core",
}

// mapOrderAllowed lists the functions that may range over a map, each
// with why the order cannot reach an output. A function is named
// package.Func or package.Type.Method.
var mapOrderAllowed = map[string]string{
	"modularizer.Compose":                "adds each config to a snapshot keyed by router name",
	"modularizer.WriteSnapshot":          "writes each config to its own file",
	"llm.routerState.scopedPeers":        "collects the peers, then sorts them",
	"llm.Synthesizer.target":             "picks the longest matching policy name, ties broken by name",
	"llm.routerState.mutate":             "rebuilds or flips each egress route-map by its name; a community list they share is built the same by each",
	"llm.useLiteralCommunityMatchesIn":   "deletes the community lists no route-map references",
	"cisco.parser.finish":                "sorts each out-of-order route-map's clauses in place",
	"cisco.sizeHint":                     "adds up sizes",
	"juniper.Parse":                      "sorts each out-of-order policy-statement's clauses in place",
	"core.LocalVerifier.GlobalNoTransit": "parses each config into a map keyed by router name",
	"core.AddPolicyIncremental":          "copies a map",
	"core.synthesizeParallel":            "copies checkpointed router outcomes into maps",
}

// TestNoOutputDependsOnMapOrder type-checks the non-test files of the
// packages that write outputs and fails on a range over a map outside
// mapOrderAllowed: Go randomizes map order, so such a loop that appends
// to an output or picks a first match makes runs differ. The packages
// share one source importer, so each dependency is checked once.
func TestNoOutputDependsOnMapOrder(t *testing.T) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	used := map[string]bool{}
	for _, dir := range mapOrderPackages {
		for _, fn := range mapRanges(t, fset, imp, dir) {
			if _, ok := mapOrderAllowed[fn.name]; !ok {
				t.Errorf("%s: %s ranges over a map; range over sorted keys, or add it to mapOrderAllowed with why the order cannot reach an output",
					fset.Position(fn.pos), fn.name)
			}
			used[fn.name] = true
		}
	}
	for name := range mapOrderAllowed {
		if !used[name] {
			t.Errorf("mapOrderAllowed names %s, which ranges over no map", name)
		}
	}
}

type mapRange struct {
	name string
	pos  token.Pos
}

// mapRanges type-checks the package in dir and returns every range over
// a map-typed expression, named by its enclosing function.
func mapRanges(t *testing.T, fset *token.FileSet, imp types.Importer, dir string) []mapRange {
	t.Helper()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, p := range pkgs {
		for _, f := range p.Files {
			files = append(files, f)
		}
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check("repro/"+dir, fset, files, info); err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	var out []mapRange
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := path.Base(dir) + "." + fd.Name.Name
			if fd.Recv != nil {
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					name = path.Base(dir) + "." + id.Name + "." + fd.Name.Name
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if rs, ok := n.(*ast.RangeStmt); ok {
					if tv, ok := info.Types[rs.X]; ok {
						if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
							out = append(out, mapRange{name: name, pos: rs.Pos()})
						}
					}
				}
				return true
			})
		}
	}
	return out
}
