package eefei

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptExports are the exported package-level names under internal/ that no
// non-test code references but that stay: each is the reference or seam a
// test checks live code against.
var keptExports = map[string]string{
	"eefei/internal/mat.Mul":                     "plain i-k-j reference the MulT/MulTA kernel tests compare against",
	"eefei/internal/mat.LeastSquares":            "normal-equation (MulTA + SolveCholesky) reference the QR solver tests compare against",
	"eefei/internal/core.SolveNumeric":           "numeric ACS (on optim.GoldenSection) the closed-form solver is tested and benchmarked against",
	"eefei/internal/ml.MaxQuantError":            "error bound the quantizer tests assert",
	"eefei/internal/iot.SlottedALOHASuccessProb": "analytic p the uplink model tests check ρ/p against",
	"eefei/internal/fldgram.Pipe":                "in-memory datagram link the ARQ tests run on",
	"eefei/internal/fl.WithParallelism":          "pool-size seam of the worker-count bit-identity tests",
	"eefei/internal/fl.WithEvalParallelism":      "evaluator-pool seam of the worker-count bit-identity tests",
}

// TestInternalExportsHaveCallers enforces one implementation per job: every
// exported package-level func, type, var and const under internal/ must be
// referenced by non-test code in the module or in feibench/, outside its
// own declaration (a type's methods are part of its declaration), unless
// keptExports names it. Methods are out of scope.
func TestInternalExportsHaveCallers(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	declared := map[string]token.Position{} // "pkgpath.Name" → position
	used := map[string]bool{}
	for _, dir := range dirs {
		bp, err := build.ImportDir(dir, 0)
		if _, ok := err.(*build.NoGoError); ok {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			t.Fatal(err)
		}
		pkgPath := filepath.ToSlash(filepath.Join("eefei", rel))
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		pkg, err := conf.Check(pkgPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", pkgPath, err)
		}
		if strings.HasPrefix(pkgPath, "eefei/internal/") {
			for _, name := range pkg.Scope().Names() {
				if obj := pkg.Scope().Lookup(name); obj.Exported() {
					declared[pkgPath+"."+name] = fset.Position(obj.Pos())
				}
			}
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				own := ownNames(decl, info)
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					obj := info.Uses[id]
					if obj == nil || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
						return true
					}
					if key := obj.Pkg().Path() + "." + obj.Name(); !own[key] {
						used[key] = true
					}
					return true
				})
			}
		}
	}

	var unused []string
	for key, pos := range declared {
		if !used[key] && keptExports[key] == "" {
			rel, _ := filepath.Rel(root, pos.Filename)
			unused = append(unused, key+" ("+rel+")")
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported %s has no non-test caller: delete it or add it to keptExports with a reason", u)
	}
	for key := range keptExports {
		if _, ok := declared[key]; !ok {
			t.Errorf("keptExports lists %s, which is not declared", key)
		} else if used[key] {
			t.Errorf("keptExports lists %s, which now has a caller: drop the entry", key)
		}
	}
}

// ownNames returns the package-level names a top-level declaration
// declares, as "pkgpath.Name" keys; a method belongs to its receiver type.
func ownNames(decl ast.Decl, info *types.Info) map[string]bool {
	own := map[string]bool{}
	add := func(id *ast.Ident) {
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj != nil && obj.Pkg() != nil {
			own[obj.Pkg().Path()+"."+obj.Name()] = true
		}
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			add(d.Name)
			break
		}
		recv := d.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		switch r := recv.(type) {
		case *ast.IndexExpr:
			recv = r.X
		case *ast.IndexListExpr:
			recv = r.X
		}
		if id, ok := recv.(*ast.Ident); ok {
			add(id)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				add(s.Name)
			case *ast.ValueSpec:
				for _, n := range s.Names {
					add(n)
				}
			}
		}
	}
	return own
}
