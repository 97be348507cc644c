// Package counterwrite flags direct writes to fields of types declared
// in internal/perf from any other package. All counter and event
// bookkeeping must flow through the perf API (Counters.Inc/Add,
// Sampler.Offer): the Eq. 1 WCPI identity and the
// walk_duration = guest + ept split are arithmetic over those entry
// points, and a stray `g.acc[e]++` or `row.Instructions = 0` elsewhere
// bypasses the invariant checks that guard them. Today most perf state
// is unexported, so the compiler already rejects the worst offenses;
// this analyzer keeps the discipline when fields are exported for
// serialization (Sample, IntervalRow) or become exported later.
package counterwrite

import (
	"go/ast"
	"go/types"
	"strings"

	"atscale/internal/analysis"
)

// PerfPath is the package-path suffix whose types are protected.
// Analysis tests point it at a fixture package.
var PerfPath = "internal/perf"

// Analyzer is the counterwrite check.
var Analyzer = &analysis.Analyzer{
	Name: "counterwrite",
	Doc: "flag direct mutation of perf counter/event struct fields outside internal/perf\n\n" +
		"Counter state must change only through the perf API so the WCPI and\n" +
		"cycle-split invariants cannot be bypassed. Constructing perf values\n" +
		"with composite literals is fine; assigning to their fields after the\n" +
		"fact, from outside the package, is not.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if pass.PkgPath == PerfPath || strings.HasSuffix(pass.PkgPath, "/"+PerfPath) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					check(pass, lhs)
				}
			case *ast.IncDecStmt:
				check(pass, st.X)
			case *ast.UnaryExpr:
				// Taking a field's address opens an aliased write path
				// that the assignment checks above cannot see.
				if st.Op.String() == "&" {
					if sel, ok := st.X.(*ast.SelectorExpr); ok {
						if owner := perfFieldOwner(pass, sel); owner != "" {
							pass.Reportf(st.Pos(), "taking the address of %s.%s aliases perf counter state: use the %s API instead", owner, sel.Sel.Name, pkgBase())
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// check reports lhs when it writes through a field (possibly under
// index expressions, as in g.acc[e]++) of a perf-declared struct type.
func check(pass *analysis.Pass, lhs ast.Expr) {
	for {
		switch e := lhs.(type) {
		case *ast.IndexExpr:
			lhs = e.X
			continue
		case *ast.SelectorExpr:
			if owner := perfFieldOwner(pass, e); owner != "" {
				pass.Reportf(e.Pos(), "direct write to %s.%s outside %s: counter and event state must go through the perf API", owner, e.Sel.Name, pkgBase())
			}
		}
		return
	}
}

// perfFieldOwner returns the owning type's display name when sel
// selects a struct field declared in PerfPath, else "". Checking the
// field object's declaring package (rather than the receiver type)
// keeps embedded perf structs protected inside wrapper types.
func perfFieldOwner(pass *analysis.Pass, sel *ast.SelectorExpr) string {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return ""
	}
	fieldPkg := s.Obj().Pkg()
	if fieldPkg == nil || (fieldPkg.Path() != PerfPath && !strings.HasSuffix(fieldPkg.Path(), "/"+PerfPath)) {
		return ""
	}
	t := s.Recv()
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Named:
			return u.Obj().Name()
		default:
			return pkgBase()
		}
	}
}

func pkgBase() string {
	if i := strings.LastIndexByte(PerfPath, '/'); i >= 0 {
		return PerfPath[i+1:]
	}
	return PerfPath
}
