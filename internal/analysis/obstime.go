package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ObsTime keeps timing policy out of obs emission sites: an argument to
// a Tracer method (or a field of an obs.Event literal) that captures the
// wall clock directly — time.Now, time.Since, time.Until — re-implements
// the sanctioned timing helpers in place. Durations handed to the
// tracer must come from obs.Stopwatch (StartTimer/Elapsed), and wall
// timestamps are stamped inside internal/obs itself (Tracer.Span), so
// that every clock read serving observability lives in one auditable
// package and the traced-equals-untraced bit-identity argument
// (DESIGN.md §9) stays a local proof. internal/obs is exempt: it is
// the sanctioned location.
var ObsTime = &Analyzer{
	Name: "obstime",
	Doc:  "flag wall-clock reads captured at obs emission sites; time durations for the tracer come from obs.Stopwatch, wall stamps from the tracer itself",
	Match: func(pkgPath string) bool {
		return !strings.HasSuffix(pkgPath, "internal/obs")
	},
	Run: runObsTime,
}

func runObsTime(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(pass.Info, n)
				if !isObsMethod(fn) {
					return true
				}
				for _, arg := range n.Args {
					reportClockReads(pass, arg, "argument to obs emission "+calleeLabel(fn))
				}
			case *ast.CompositeLit:
				if t, ok := pass.Info.Types[n]; !ok || !isObsEventType(t.Type) {
					return true
				}
				for _, elt := range n.Elts {
					reportClockReads(pass, elt, "obs.Event literal")
				}
			}
			return true
		})
	}
}

// reportClockReads walks one emission-site expression and flags every
// direct wall-clock read inside it.
func reportClockReads(pass *Pass, expr ast.Expr, where string) {
	ast.Inspect(expr, func(n ast.Node) bool {
		// A nested obs.Event literal is its own emission site; the
		// composite-literal rule reports it once.
		if cl, ok := n.(*ast.CompositeLit); ok {
			if t, ok := pass.Info.Types[cl]; ok && isObsEventType(t.Type) {
				return false
			}
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if funcPkgPath(fn) == "time" && wallClockFuncs[fn.Name()] {
			pass.Reportf(call.Pos(),
				"wall clock captured in %s: time.%s re-implements timing at the emission site; measure with obs.Stopwatch (StartTimer/Elapsed) or let the tracer stamp the timestamp (DESIGN.md §9)",
				where, fn.Name())
		}
		return true
	})
}

// isObsMethod reports whether fn is a method of a type defined in the
// obs package (the Tracer emission surface and the sinks).
func isObsMethod(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return strings.HasSuffix(funcPkgPath(fn), "internal/obs")
}

// isObsEventType reports whether t is obs.Event.
func isObsEventType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Event" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/obs")
}
