package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// DetFlow is the interprocedural determinism gate: it taints every
// function that can observe ambient nondeterminism — directly or
// through any chain of calls — and reports when taint reaches a
// declared deterministic root (a search algorithm entry point, the
// broker dispatch path, the remote wire codec, journal replay). The
// per-file analyzers (nodeterm, rngstream, obstime) catch sources
// written directly into the hot paths; detflow catches the ones hidden
// two helpers deep in another package, which is exactly where they
// land once reviewers stop seeing them.
//
// Sources:
//   - wall-clock reads: time.Now, time.Since, time.Until — called or
//     captured as a function value;
//   - ambient rng: any math/rand or math/rand/v2 package-level call
//     (the global source seeds itself from process state);
//   - process state: os.Getenv, os.LookupEnv, os.Environ, os.Getpid,
//     os.Hostname — values that differ between hosts and runs;
//   - map-range order: ranging over a map and appending to a slice the
//     function returns (iteration order is randomized per run). The
//     append is considered sanitized when the slice is passed to a
//     sort.* / slices.Sort* call in the same function;
//   - map-range float accumulation: inside a range over a map, a
//     floating-point variable declared outside the loop accumulated
//     with +=, -=, *= or /= (or v = v op x). Float arithmetic is not
//     associative, so the result's last bits follow the randomized
//     iteration order.
//
// Sanitizers: internal/obs and internal/rng are sanctioned packages —
// obs owns every observability clock read (obs.Stopwatch, Tracer wall
// stamps; DESIGN.md §9 proves tracing perturbs nothing) and rng owns
// the injected, named-substream generators that make randomness
// deterministic by construction. Taint never propagates out of either,
// and calls into them are not traversed.
//
// The chaostest and crashtest harness packages are exempt: they are
// non-test packages only because re-exec children need them, and they
// legitimately read the environment. They call the deterministic roots
// from outside; nothing inside a root's call closure lives there.
//
// A finding is reported at the source (the fix site) and carries the
// full root→source call chain, so the reviewer sees in one message why
// a time.Now three packages away breaks TestParallelMatchesSerial.
var DetFlow = &Analyzer{
	Name:      "detflow",
	Doc:       "trace ambient nondeterminism (wall clock, global rand, process state, map order, map-order float sums) through the call graph into the declared deterministic roots",
	RunModule: runDetFlow,
}

// detflowSourceFuncs maps package path → function name → source kind.
// An empty name key matches every function of the package.
var detflowSourceFuncs = map[string]map[string]string{
	"time": {"Now": "wall clock", "Since": "wall clock", "Until": "wall clock"},
	"os": {
		"Getenv": "process state", "LookupEnv": "process state",
		"Environ": "process state", "Getpid": "process state",
		"Hostname": "process state",
	},
	"math/rand":    {"": "ambient rng"},
	"math/rand/v2": {"": "ambient rng"},
}

// detflowRootRule declares one set of deterministic roots: functions of
// packages whose import path contains Frag. With Names nil every
// exported function and method is a root; otherwise exactly the named
// ones (exported or not). To declare a new deterministic root, add a
// rule here (or a name to an existing rule) and, if the package hosts
// sanctioned nondeterminism, teach the sanitizer set below — see
// README "Adding a deterministic root".
type detflowRootRule struct {
	Frag  string
	Names []string
}

var detflowRootRules = []detflowRootRule{
	// Every search/sim/core entry point must be deterministic: the
	// common-random-numbers comparisons (PAPER.md §IV-D) and
	// TestParallelMatchesSerial assume identical seeds give identical
	// results bit for bit.
	{Frag: "internal/search"},
	{Frag: "internal/sim"},
	{Frag: "internal/core"},
	// The remote pool's dispatch/hedge/retry pipeline, wire codec, and
	// serving paths: worker faults may move an evaluation, never change
	// it, and frames must encode the same bytes on every host
	// (TestRemoteMatchesInline).
	{Frag: "internal/broker/remote", Names: []string{
		"Evaluate", "Serve", "AddConn", "Run", "write", "read",
		"encodeFrame", "outcomeToWire", "outcomeFromWire",
	}},
	// Journal replay must reproduce the original run exactly.
	{Frag: "internal/journal", Names: []string{"Run", "EvaluateFull", "Records"}},
	// The one evaluation-stack builder: every CLI, worker, and daemon
	// session runs the stack and driver it builds, so a nondeterministic
	// layer here would break every bit-identity invariant at once.
	{Frag: "internal/spec", Names: []string{"Resolve", "Base", "Build", "Driver"}},
}

// detflowSanitizedPkg reports whether path hosts sanctioned
// nondeterminism: taint neither originates in nor propagates out of it.
func detflowSanitizedPkg(path string) bool {
	return strings.Contains(path, "internal/obs") || strings.Contains(path, "internal/rng")
}

// detflowExemptPkg reports whether path is a test harness shipped as
// non-test code (re-exec children import it); it is outside the
// deterministic closure by design.
func detflowExemptPkg(path string) bool {
	return strings.Contains(path, "chaostest") || strings.Contains(path, "crashtest")
}

// detflowSkip reports whether a node takes no part in taint analysis.
func detflowSkip(n *CallNode) bool {
	return detflowSanitizedPkg(n.Pkg.Path) || detflowExemptPkg(n.Pkg.Path)
}

// A taintSource is one intrinsic nondeterminism site inside a function
// body.
type taintSource struct {
	kind string // "wall clock", "ambient rng", "process state", "map order"
	what string // the expression blamed, e.g. "time.Now"
	pos  token.Pos
}

func runDetFlow(mp *ModulePass) {
	g := mp.Graph

	// Intrinsic sources per node.
	intrinsic := map[*CallNode][]taintSource{}
	for _, n := range g.Nodes() {
		if detflowSkip(n) {
			continue
		}
		if srcs := detflowIntrinsic(n); len(srcs) > 0 {
			intrinsic[n] = srcs
		}
	}

	roots := detflowRoots(g)

	// For each root, breadth-first search along call edges (shortest
	// chains win); the first chain found per source position is kept,
	// so every source is reported once with its nearest root.
	type chain struct {
		root  *CallNode
		hops  []ChainHop
		src   taintSource
		depth int
	}
	best := map[token.Position]*chain{}
	for _, root := range roots {
		type visit struct {
			node *CallNode
			via  *visit
			site token.Pos // call site in via.node that reaches node
		}
		seen := map[*CallNode]bool{root: true}
		queue := []*visit{{node: root}}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, src := range intrinsic[v.node] {
				pos := mp.Fset.Position(src.pos)
				depth := 0
				for p := v; p.via != nil; p = p.via {
					depth++
				}
				if b, ok := best[pos]; ok && b.depth <= depth {
					continue
				}
				// Reconstruct root→…→node, then the source itself.
				var rev []*visit
				for p := v; p != nil; p = p.via {
					rev = append(rev, p)
				}
				var hops []ChainHop
				for i := len(rev) - 1; i >= 0; i-- {
					p := rev[i]
					// Each hop points at the call site that takes the
					// chain one function deeper; the first hop (the root)
					// points at its declaration.
					hopPos := p.node.Decl.Pos()
					if i < len(rev)-1 {
						hopPos = p.site
					}
					hops = append(hops, ChainHop{Func: p.node.Label(), Pos: mp.Fset.Position(hopPos)})
				}
				hops = append(hops, ChainHop{Func: src.what, Pos: pos})
				best[pos] = &chain{root: root, hops: hops, src: src, depth: depth}
			}
			for _, e := range v.node.Out {
				if seen[e.Callee] || detflowSkip(e.Callee) {
					continue
				}
				seen[e.Callee] = true
				queue = append(queue, &visit{node: e.Callee, via: v, site: e.Site})
			}
		}
	}

	// Deterministic report order: by source position.
	positions := make([]token.Position, 0, len(best))
	for pos := range best {
		positions = append(positions, pos)
	}
	sort.Slice(positions, func(i, j int) bool {
		a, b := positions[i], positions[j]
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	for _, pos := range positions {
		c := best[pos]
		var path []string
		for _, h := range c.hops {
			path = append(path, h.Func)
		}
		mp.ReportChainf(c.src.pos, c.hops,
			"%s (%s) reaches deterministic root %s via %s; route observability timing through obs.Stopwatch, draw randomness from an injected internal/rng stream, or sort before returning map-ranged data",
			c.src.what, c.src.kind, c.root.Label(), strings.Join(path, " → "))
	}
}

// detflowRoots selects the root nodes in deterministic order.
func detflowRoots(g *CallGraph) []*CallNode {
	var out []*CallNode
	for _, n := range g.Nodes() { // already position-sorted
		if detflowSkip(n) {
			continue
		}
		if detflowIsRoot(n) {
			out = append(out, n)
		}
	}
	return out
}

func detflowIsRoot(n *CallNode) bool {
	for _, r := range detflowRootRules {
		if !strings.Contains(n.Pkg.Path, r.Frag) {
			continue
		}
		if r.Names == nil {
			if n.Fn.Exported() {
				return true
			}
			continue
		}
		for _, name := range r.Names {
			if n.Fn.Name() == name {
				return true
			}
		}
	}
	return false
}

// detflowIntrinsic finds the nondeterminism sources written directly
// into n's body (function literals included: a closure's reads are its
// declarer's reads).
func detflowIntrinsic(n *CallNode) []taintSource {
	info := n.Pkg.Info
	var out []taintSource

	// Call positions, so a reference in call position is not also
	// counted as a captured function value.
	calleePos := map[ast.Expr]bool{}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok {
			calleePos[ast.Unparen(call.Fun)] = true
		}
		return true
	})

	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.CallExpr:
			if fn := calleeFunc(info, node); fn != nil {
				if kind, what, ok := detflowSourceFunc(fn); ok {
					out = append(out, taintSource{kind: kind, what: what, pos: node.Pos()})
				}
			}
		case *ast.SelectorExpr:
			if calleePos[ast.Expr(node)] {
				return true
			}
			if fn, ok := info.Uses[node.Sel].(*types.Func); ok {
				if kind, what, ok := detflowSourceFunc(fn); ok {
					out = append(out, taintSource{kind: kind, what: what + " (captured as a function value)", pos: node.Pos()})
				}
			}
		case *ast.RangeStmt:
			if src, ok := detflowMapOrderLeak(n, node); ok {
				out = append(out, src)
			}
			out = append(out, detflowMapFloatAccum(n, node)...)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// detflowSourceFunc classifies fn against the source table.
func detflowSourceFunc(fn *types.Func) (kind, what string, ok bool) {
	path := funcPkgPath(fn)
	byName, ok := detflowSourceFuncs[path]
	if !ok {
		return "", "", false
	}
	short := path
	if i := strings.LastIndex(short, "/"); i >= 0 {
		short = short[i+1:]
	}
	if k, ok := byName[fn.Name()]; ok {
		return k, short + "." + fn.Name(), true
	}
	if k, ok := byName[""]; ok {
		return k, short + "." + fn.Name(), true
	}
	return "", "", false
}

// detflowMapOrderLeak reports whether rs ranges over a map and appends
// to a slice the enclosing function returns without sorting it: the
// one shape where Go's randomized iteration order escapes into a
// result value.
func detflowMapOrderLeak(n *CallNode, rs *ast.RangeStmt) (taintSource, bool) {
	info := n.Pkg.Info
	tv, ok := info.Types[rs.X]
	if !ok {
		return taintSource{}, false
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return taintSource{}, false
	}

	// Variables appended to inside the loop body.
	appended := map[types.Object]token.Pos{}
	ast.Inspect(rs.Body, func(node ast.Node) bool {
		asg, ok := node.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range asg.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" || info.Uses[id] != types.Universe.Lookup("append") {
				continue
			}
			if i >= len(asg.Lhs) {
				continue
			}
			if id, ok := ast.Unparen(asg.Lhs[i]).(*ast.Ident); ok {
				if obj := info.ObjectOf(id); obj != nil {
					appended[obj] = asg.Pos()
				}
			}
		}
		return true
	})
	if len(appended) == 0 {
		return taintSource{}, false
	}

	// Of those, the ones the function returns (bare returns count the
	// named results), minus the ones sanitized by a sort call.
	returned := map[types.Object]bool{}
	sorted := map[types.Object]bool{}
	sig, _ := n.Fn.Type().(*types.Signature)
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.ReturnStmt:
			if len(node.Results) == 0 && sig != nil {
				for i := 0; i < sig.Results().Len(); i++ {
					returned[sig.Results().At(i)] = true
				}
				return true
			}
			for _, res := range node.Results {
				if id, ok := ast.Unparen(res).(*ast.Ident); ok {
					if obj := info.ObjectOf(id); obj != nil {
						returned[obj] = true
					}
				}
			}
		case *ast.CallExpr:
			fn := calleeFunc(info, node)
			if fn == nil {
				return true
			}
			pkg := funcPkgPath(fn)
			if pkg != "sort" && pkg != "slices" {
				return true
			}
			for _, arg := range node.Args {
				walkIdentObjs(info, arg, func(obj types.Object) { sorted[obj] = true })
			}
		}
		return true
	})
	// Blame the earliest offending append (map iteration order must not
	// leak into the analyzer's own output, of all places).
	var hit token.Pos
	for obj, pos := range appended {
		if returned[obj] && !sorted[obj] && (hit == token.NoPos || pos < hit) {
			hit = pos
		}
	}
	if hit != token.NoPos {
		return taintSource{kind: "map order", what: "map range (order reaches return value)", pos: hit}, true
	}
	return taintSource{}, false
}

// detflowMapFloatAccum reports float accumulation inside a range over a
// map: an assignment that folds a value into a floating-point variable
// (or a field or element of one) declared outside the range statement.
// Accumulators local to one iteration are order-independent and pass.
func detflowMapFloatAccum(n *CallNode, rs *ast.RangeStmt) []taintSource {
	info := n.Pkg.Info
	tv, ok := info.Types[rs.X]
	if !ok {
		return nil
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return nil
	}
	var out []taintSource
	ast.Inspect(rs.Body, func(node ast.Node) bool {
		asg, ok := node.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
			return true
		}
		lhs := ast.Unparen(asg.Lhs[0])
		switch asg.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		case token.ASSIGN:
			// v = v op x
			bin, ok := ast.Unparen(asg.Rhs[0]).(*ast.BinaryExpr)
			if !ok || !sameObjExpr(info, bin.X, lhs) {
				return true
			}
		default:
			return true
		}
		t, ok := info.Types[lhs]
		if !ok {
			return true
		}
		if b, ok := t.Type.Underlying().(*types.Basic); !ok || b.Info()&(types.IsFloat|types.IsComplex) == 0 {
			return true
		}
		root := rootIdent(lhs)
		if root == nil {
			return true
		}
		obj := info.ObjectOf(root)
		if obj == nil || (obj.Pos() >= rs.Pos() && obj.Pos() < rs.End()) {
			return true
		}
		out = append(out, taintSource{kind: "map order", what: "float accumulation over map range", pos: asg.Pos()})
		return true
	})
	return out
}

// rootIdent returns the variable an lvalue such as v, v.f or v[i].f
// ultimately writes into, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// sameObjExpr reports whether a and b are the same plain variable.
func sameObjExpr(info *types.Info, a, b ast.Expr) bool {
	ia, ok1 := ast.Unparen(a).(*ast.Ident)
	ib, ok2 := ast.Unparen(b).(*ast.Ident)
	return ok1 && ok2 && info.ObjectOf(ia) != nil && info.ObjectOf(ia) == info.ObjectOf(ib)
}

// walkIdentObjs calls f for every identifier object inside expr.
func walkIdentObjs(info *types.Info, expr ast.Expr, f func(types.Object)) {
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil {
				f(obj)
			}
		}
		return true
	})
}
