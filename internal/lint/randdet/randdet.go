// Package randdet forbids the unseeded process-global math/rand source.
// Every stochastic choice in the simulation — multihomed egress,
// exploration, fault firing — must come from a *rand.Rand seeded from the experiment's
// root seed, so that the same seed replays the same world. A call like
// rand.Intn draws from the shared global source, which differs across
// processes and interleaves across goroutines: two runs of the same
// experiment diverge by construction.
//
// Constructing seeded sources (rand.New, rand.NewZipf and the
// math/rand/v2 equivalents) is what the rule demands, so those stay
// legal; every other package-level math/rand reference is flagged. Outside
// _test.go files rand.NewSource is flagged too: internal/seedrand.New
// yields the same sequence without allocating math/rand's 607-word
// register up front, and it is the one package that may call it.
package randdet

import (
	"go/ast"
	"strings"

	"csaw/internal/lint/analysis"
)

const seedrandPkg = "csaw/internal/seedrand"

var randPkgs = map[string]map[string]bool{
	// allowed package-level names per rand package
	"math/rand":    {"New": true, "NewSource": true, "NewZipf": true, "Rand": true, "Source": true, "Source64": true, "Zipf": true},
	"math/rand/v2": {"New": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true, "Rand": true, "Source": true, "Zipf": true, "PCG": true, "ChaCha8": true},
}

// Analyzer is the randdet analyzer.
var Analyzer = &analysis.Analyzer{
	Name:     "randdet",
	Doc:      "forbid the global math/rand source (rand.Intn, rand.Float64, ...); randomness must come from a seeded *rand.Rand threaded from config",
	Suppress: "rand",
	Run:      run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		test := strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go")
		for _, spec := range f.Imports {
			path := importPath(spec)
			if randPkgs[path] != nil && spec.Name != nil && spec.Name.Name == "." {
				pass.Reportf(spec.Pos(), "dot-import of %s hides global-source calls from review; import it qualified", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			_, path, ok := pass.PkgFuncRef(sel)
			if !ok {
				return true
			}
			if path == "math/rand" && sel.Sel.Name == "NewSource" && !test && pass.Pkg.Path() != seedrandPkg {
				pass.Reportf(sel.Pos(), "rand.NewSource allocates math/rand's 607-word register; build seeded sources with seedrand.New, which yields the same sequence")
				return true
			}
			allowed, isRand := randPkgs[path]
			if !isRand || allowed[sel.Sel.Name] {
				return true
			}
			pass.Reportf(sel.Pos(), "rand.%s uses the process-global math/rand source; draw from a seeded *rand.Rand threaded from the experiment seed", sel.Sel.Name)
			return true
		})
	}
	return nil
}

func importPath(spec *ast.ImportSpec) string {
	s := spec.Path.Value
	return s[1 : len(s)-1]
}
