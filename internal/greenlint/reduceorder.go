package greenlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ReduceOrder guards the kernels' determinism bar. The ml kernels
// promise bit-identical probabilities, Costs and grid exports, and they
// run sequentially so every float reduction has one fixed order; the
// grid's worker pool is the only concurrency in a grid run. The classic
// way to break that is an innocent `sum += x` from a goroutine — float
// addition is not associative, so the accumulation order (and the
// output bits) would depend on goroutine scheduling. The check
// therefore flags, inside internal/ml:
//
//   - every `go` statement, and
//   - every write to a captured variable inside a go-launched function
//     literal — compound assignment, ++/--, or a plain assignment to a
//     bare identifier declared outside the literal.
//
// Disjoint-slot writes (x[i] = v into an item-addressed slice) are the
// sanctioned pattern and are not flagged. Every flagged site must
// carry a //greenlint:allow reduceorder annotation arguing why its
// order cannot leak into the output; an unannotated launch is a
// finding even when its body looks clean, because the argument belongs
// in the source next to the goroutine.
var ReduceOrder = &Analyzer{
	Name: "reduceorder",
	Doc:  "in internal/ml every goroutine launch, and every write to a captured variable inside one, must argue its reduction order",
	Run: func(p *Pass) {
		if !strings.HasSuffix(p.Pkg.Path, "/ml") {
			return
		}
		for _, f := range p.Pkg.Files {
			if strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				p.Reportf(g.Pos(),
					"goroutine launch in the ml kernels; annotate the sanctioned reduction order (disjoint slots, caller-side reduce) or stay sequential")
				if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
					p.checkCapturedWrites(lit)
				}
				return true
			})
		}
	},
}

// checkCapturedWrites flags direct writes to variables the goroutine
// body captures from its enclosing scope. Nested function literals are
// included — a closure handed to sync.Once or defer still executes on
// the worker goroutine.
func (p *Pass) checkCapturedWrites(lit *ast.FuncLit) {
	captured := func(id *ast.Ident) bool {
		if id.Name == "_" {
			return false
		}
		obj, ok := p.Pkg.Info.Uses[id].(*types.Var)
		if !ok {
			return false
		}
		return obj.Pos() < lit.Pos() || obj.Pos() > lit.End()
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range st.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && captured(id) {
					p.Reportf(id.Pos(),
						"goroutine writes captured variable %q; a shared accumulator makes the output depend on scheduling — write item-addressed slots and reduce on the caller", id.Name)
				}
			}
		case *ast.IncDecStmt:
			if id, ok := st.X.(*ast.Ident); ok && captured(id) {
				p.Reportf(id.Pos(),
					"goroutine writes captured variable %q; a shared accumulator makes the output depend on scheduling — write item-addressed slots and reduce on the caller", id.Name)
			}
		}
		return true
	})
}
