package uncertaingraph_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports names each exported package-level name under
// internal/ that no non-test file references, keyed "<package>.<Name>",
// with the reason it stays.
var testOnlyExports = map[string]string{
	"adversary.MatchedK":          "Section 7.3's matching rule; TestStrongerPerturbationRaisesMatchedK checks the baselines with it",
	"anf.NeighbourhoodFunction":   "the one-shot form of Engine.NeighbourhoodFunction, which the anf tests call beside the engine",
	"bfs.FromSource":              "the allocating BFS, the reference the bfs and query tests compare against",
	"datasets.All":                "lets the datasets tests generate every stand-in at once",
	"gen.ErdosRenyiGNP":           "the G(n, p) generator that pins randx.EachPair's draw order and its tiny-p fix",
	"hll.EachKernel":              "runs a test on the Go loop and, where the CPU has AVX2, on the kernel",
	"hll.New":                     "the single HyperLogLog counter the hll tests check the estimator with",
	"mathx.HoeffdingFailureBound": "the inverse of HoeffdingSampleSize, checked against it in the mathx tests",
	"mathx.NewTruncNormal":        "builds R_σ with its PDF, CDF and mean, the closed forms the truncated-normal tests check",
	"mathx.NormalCDF":             "the closed form NormalIntervalMass is checked against",
	"mathx.StdNormalPDF":          "the closed form NormalPDF is checked against",
	"pbinom.Approx":               "the CLT law alone, checked against the exact law",
	"pbinom.Exact":                "the exact DP law alone, the reference the pbinom tests compare the CLT law with",
	"randx.EachKernel":            "runs a test on the Go loop and, where the CPU has AVX2, on the kernels",
	"randx.Shuffle":               "only TestShuffleIsPermutation calls it; a candidate for deletion together with that test",
	"stats.ConnectedTriples":      "the one-call form of ConnectedTriplesGiven, which the stats and expected-value tests call",
}

// TestInternalExportsHaveShippedCallers fails when an exported
// package-level name under internal/ is referenced by no non-test file,
// in the module or in e2ebench/, and is not in testOnlyExports; and
// when a listed name is gone or has gained such a caller. Methods are
// out of scope: the facade aliases internal types, so their methods
// are public API whether or not the repository calls them.
func TestInternalExportsHaveShippedCallers(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]bool{}
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg, internal := strings.CutPrefix(filepath.ToSlash(filepath.Dir(p)), "internal/")
		if internal {
			for _, name := range exportedDecls(f) {
				declared[pkg+"."+name] = true
			}
		} else {
			pkg = ""
		}
		markUses(f, pkg, used)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range sortedKeys(declared) {
		_, listed := testOnlyExports[key]
		switch {
		case !used[key] && !listed:
			t.Errorf("%s is exported but only tests reference it: delete it, or list it in testOnlyExports with the reason it stays", key)
		case used[key] && listed:
			t.Errorf("%s is listed in testOnlyExports but non-test code now references it: drop it from the list", key)
		}
	}
	for _, key := range sortedKeys(testOnlyExports) {
		if !declared[key] {
			t.Errorf("%s is listed in testOnlyExports but no longer declared: drop it from the list", key)
		}
	}
}

// exportedDecls returns the exported package-level names f declares:
// functions other than methods, types, variables and constants.
func exportedDecls(f *ast.File) []string {
	var names []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				names = append(names, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						names = append(names, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							names = append(names, n.Name)
						}
					}
				}
			}
		}
	}
	return names
}

// markUses records in used every internal name f references: a
// selector on an imported internal package, and, when f belongs to the
// internal package pkg, a bare identifier that does not declare a name
// or a field.
func markUses(f *ast.File, pkg string, used map[string]bool) {
	imports := map[string]string{} // local name -> internal package
	for _, spec := range f.Imports {
		p, err := strconv.Unquote(spec.Path.Value)
		if err != nil {
			continue
		}
		ipkg, ok := strings.CutPrefix(p, "uncertaingraph/internal/")
		if !ok {
			continue
		}
		name := path.Base(ipkg)
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imports[name] = ipkg
	}
	declaring := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			declaring[n.Name] = true
		case *ast.TypeSpec:
			declaring[n.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				declaring[id] = true
			}
		case *ast.Field:
			for _, id := range n.Names {
				declaring[id] = true
			}
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				declaring[id] = true
			}
		case *ast.ImportSpec:
			if n.Name != nil {
				declaring[n.Name] = true
			}
		}
		return true
	})
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if ipkg, ok := imports[x.Name]; ok {
					used[ipkg+"."+n.Sel.Name] = true
					return false
				}
			}
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			if pkg != "" && !declaring[n] {
				used[pkg+"."+n.Name] = true
			}
		}
		return true
	}
	ast.Inspect(f, visit)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
