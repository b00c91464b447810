package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math"
)

// FloatCmp polices float comparisons around measured run times, where a
// NaN or an almost-equal pair silently corrupts results instead of
// failing loudly. Three rules, module-wide: (1) == and != between two
// non-constant float operands is flagged — run times come out of
// simulation arithmetic, and exact equality on them is either a bug or
// a deliberate exact-tie check that deserves a //lint:ignore with its
// justification; comparisons against exact integral constants (x == 0
// sentinels) stay allowed. (2) Any comparison whose operand is
// math.NaN() is flagged: it is always false, the author wanted
// math.IsNaN. (3) A comparator handed to sort.Slice, sort.SliceStable,
// slices.SortFunc or slices.SortStableFunc that orders raw floats with
// <, <=, > or >= and no math.IsNaN guard is flagged — NaN breaks the
// comparator's transitivity and derails sort entirely, which is why
// run-time datasets pass through Dataset.Valid before any ordering.
// The comparator may be a function literal or a function declared in
// the same package; cmp.Compare orders NaN consistently and passes.
var FloatCmp = &Analyzer{
	Name: "floatcmp",
	Doc:  "flag exact float equality, comparisons with math.NaN(), and NaN-unsafe float sort comparators",
	Run:  runFloatCmp,
}

func runFloatCmp(pass *Pass) {
	// A named comparator passed to several sorts is reported once.
	reported := map[token.Pos]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkFloatEq(pass, n)
			case *ast.CallExpr:
				checkSortComparator(pass, n, reported)
			}
			return true
		})
	}
}

func checkFloatEq(pass *Pass, be *ast.BinaryExpr) {
	switch be.Op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
	default:
		return
	}
	// Rule 2: any relational use of math.NaN() is meaningless.
	for _, side := range []ast.Expr{be.X, be.Y} {
		if call, ok := ast.Unparen(side).(*ast.CallExpr); ok {
			if isPkgFunc(calleeFunc(pass.Info, call), "math", "NaN") {
				pass.ReportValuef(be.Pos(), math.NaN(),
					"comparison with math.NaN() is always false: use math.IsNaN")
				return
			}
		}
	}
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	tx, ty := pass.Info.TypeOf(be.X), pass.Info.TypeOf(be.Y)
	if tx == nil || ty == nil || !isFloat(tx) || !isFloat(ty) {
		return
	}
	// Rule 1: allow comparisons against exact integral constants (the
	// x == 0 sentinel idiom); everything else is an exact-equality trap.
	for _, side := range []ast.Expr{be.X, be.Y} {
		if v := constVal(pass, side); v != nil {
			if constant.ToInt(v).Kind() == constant.Int {
				return
			}
			f, _ := constant.Float64Val(v)
			pass.ReportValuef(be.Pos(), f,
				"exact equality against non-integral float constant %v: the comparison depends on rounding; compare with a tolerance", v)
			return
		}
	}
	pass.Reportf(be.Pos(),
		"exact float equality on computed values: run times come out of arithmetic and %s compares bit patterns; use a tolerance, or //lint:ignore floatcmp with the exact-tie justification", be.Op)
}

// constVal returns the compile-time constant value of e, nil when e is
// not constant.
func constVal(pass *Pass, e ast.Expr) constant.Value {
	tv, ok := pass.Info.Types[e]
	if !ok {
		return nil
	}
	return tv.Value
}

// sortFuncs are the sorts whose second argument is a comparator.
var sortFuncs = [...]struct{ pkg, name string }{
	{"sort", "Slice"}, {"sort", "SliceStable"},
	{"slices", "SortFunc"}, {"slices", "SortStableFunc"},
}

// checkSortComparator flags float-ordering comparators handed to the
// sortFuncs that never consult math.IsNaN.
func checkSortComparator(pass *Pass, call *ast.CallExpr, reported map[token.Pos]bool) {
	fn := calleeFunc(pass.Info, call)
	isSort := false
	for _, sf := range sortFuncs {
		isSort = isSort || isPkgFunc(fn, sf.pkg, sf.name)
	}
	if !isSort || len(call.Args) < 2 {
		return
	}
	body := comparatorBody(pass, call.Args[1])
	if body == nil {
		return
	}
	guarded := false
	var firstCmp ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			inner := calleeFunc(pass.Info, n)
			if isPkgFunc(inner, "math", "IsNaN") {
				guarded = true
			}
		case *ast.BinaryExpr:
			switch n.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ:
				tx, ty := pass.Info.TypeOf(n.X), pass.Info.TypeOf(n.Y)
				if tx != nil && ty != nil && isFloat(tx) && isFloat(ty) && firstCmp == nil {
					firstCmp = n
				}
			}
		}
		return true
	})
	if firstCmp != nil && !guarded && !reported[firstCmp.Pos()] {
		reported[firstCmp.Pos()] = true
		pass.Reportf(firstCmp.Pos(),
			"float ordering in a sort comparator without a math.IsNaN guard: a NaN violates transitivity and corrupts the whole sort; filter with Dataset.Valid (or guard), or //lint:ignore floatcmp with the reason the input is NaN-free")
	}
}

// comparatorBody returns the body of a comparator argument: a function
// literal, or a function declared in the package under analysis. Other
// comparators (another package's functions, func-typed values) have no
// body here and return nil.
func comparatorBody(pass *Pass, arg ast.Expr) *ast.BlockStmt {
	var id *ast.Ident
	switch e := ast.Unparen(arg).(type) {
	case *ast.FuncLit:
		return e.Body
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	fn, ok := pass.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() != pass.Pkg {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && pass.Info.Defs[fd.Name] == fn {
				return fd.Body
			}
		}
	}
	return nil
}
