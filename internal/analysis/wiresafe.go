package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// WireSafe guards the broker/remote frame boundary: every type that
// crosses the wire must round-trip JSON stably, on every host, in the
// same bytes — remote-vs-inline bit-identity
// (TestRemoteMatchesInline) dies the moment an encoding is
// host-dependent or lossy. The analyzer computes the wire closure —
// every named type reachable from a json.Marshal/Unmarshal call inside
// the wire package (internal/broker/remote) through struct fields,
// slices, arrays, pointers, and maps — and enforces four rules over
// it:
//
//  1. No non-string map keys: encoding/json encodes integer keys via
//     strconv and rejects most others at runtime; both are landmines
//     on a protocol surface. (String-keyed maps are tolerated:
//     encoding/json sorts keys, so their encoding is stable.)
//  2. No bare float32/float64 fields: failed evaluations legitimately
//     carry ±Inf and NaN, which encoding/json rejects outright. Float
//     fields must use a named wrapper with MarshalJSON/UnmarshalJSON
//     methods (the obs.JSONFloat convention).
//  3. No unkeyed struct literals of wire types, anywhere in the
//     module: adding a wire field must be a compile-visible protocol
//     change, not a silent positional reshuffle.
//  4. No map iteration inside the custom MarshalJSON of a wire type:
//     hand-rolled encoders must not leak randomized map order onto the
//     wire.
//
// Types that carry both MarshalJSON and UnmarshalJSON methods are
// treated as sealed leaves (their encoding is their own contract, rule
// 4 still applies to its body); the closure does not descend into
// them.
var WireSafe = &Analyzer{
	Name:      "wiresafe",
	Doc:       "every type crossing the broker/remote wire must round-trip JSON stably: no non-string map keys, no bare float fields, no unkeyed wire literals, no map-order marshaling",
	RunModule: runWireSafe,
}

// wireSafePkg reports whether path is a wire package: the place whose
// json.Marshal/Unmarshal calls define what goes on the wire.
func wireSafePkg(path string) bool {
	return strings.Contains(path, "internal/broker/remote")
}

func runWireSafe(mp *ModulePass) {
	// Step 1: wire roots — named types passed to json.Marshal /
	// json.Unmarshal / (*json.Encoder).Encode / (*json.Decoder).Decode
	// inside wire packages.
	rootSet := map[*types.Named]bool{}
	for _, pkg := range mp.Pkgs {
		if !wireSafePkg(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pkg.Info, call)
				if fn == nil || funcPkgPath(fn) != "encoding/json" {
					return true
				}
				switch fn.Name() {
				case "Marshal", "MarshalIndent", "Unmarshal", "Encode", "Decode":
				default:
					return true
				}
				for _, arg := range call.Args {
					tv, ok := pkg.Info.Types[arg]
					if !ok {
						continue
					}
					if named := namedOf(tv.Type); named != nil && definedInPkgs(named, mp.Pkgs) {
						rootSet[named] = true
					}
				}
				return true
			})
		}
	}
	if len(rootSet) == 0 {
		return
	}

	// Step 2: closure over field/element types.
	closure := wireClosure(rootSet, mp.Pkgs)

	// Step 3: field rules, reported at the field declaration.
	for _, named := range closure {
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		obj := named.Obj()
		for i := 0; i < st.NumFields(); i++ {
			field := st.Field(i)
			pos := fieldPos(named, field, mp.Pkgs)
			if pos == token.NoPos {
				pos = obj.Pos()
			}
			checkWireFieldType(mp, named, field, field.Type(), pos)
		}
	}

	// Step 4: unkeyed composite literals of wire types, module-wide.
	inClosure := map[*types.Named]bool{}
	for _, n := range closure {
		inClosure[n] = true
	}
	for _, pkg := range mp.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok || len(lit.Elts) == 0 {
					return true
				}
				tv, ok := pkg.Info.Types[ast.Expr(lit)]
				if !ok {
					return true
				}
				named := namedOf(tv.Type)
				if named == nil || !inClosure[named] {
					return true
				}
				if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
					return true
				}
				for _, elt := range lit.Elts {
					if _, ok := elt.(*ast.KeyValueExpr); !ok {
						mp.Reportf(lit.Pos(),
							"unkeyed composite literal of wire type %s: positional fields silently reshuffle when the wire format grows a field; use keyed fields",
							named.Obj().Name())
						break
					}
				}
				return true
			})
		}
	}

	// Step 5: no map ranges inside custom MarshalJSON methods of wire
	// types (randomized order would reach the wire bytes).
	for _, named := range closure {
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if m.Name() != "MarshalJSON" {
				continue
			}
			node := mp.Graph.Node(m)
			if node == nil {
				continue
			}
			ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := node.Pkg.Info.Types[rs.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					mp.Reportf(rs.Pos(),
						"map range inside %s.MarshalJSON: iteration order is randomized per run and would reach the wire bytes; iterate sorted keys",
						named.Obj().Name())
				}
				return true
			})
		}
	}
}

// checkWireFieldType enforces the field rules on one (possibly nested)
// field type of a wire struct.
func checkWireFieldType(mp *ModulePass, owner *types.Named, field *types.Var, t types.Type, pos token.Pos) {
	switch t := t.(type) {
	case *types.Named:
		if hasJSONRoundTrip(t) {
			return // sealed leaf: its marshalers own the contract
		}
		if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
			mp.Reportf(pos,
				"wire field %s.%s has float type %s without MarshalJSON/UnmarshalJSON: ±Inf and NaN (legitimate failed-evaluation values) do not survive encoding/json; use the non-finite-safe wrapper convention (obs.JSONFloat)",
				owner.Obj().Name(), field.Name(), t.Obj().Name())
		}
		// Named struct types in the closure are checked as their own
		// closure members; nothing further here.
	case *types.Basic:
		if t.Info()&types.IsFloat != 0 {
			mp.Reportf(pos,
				"wire field %s.%s is a bare %s: ±Inf and NaN (legitimate failed-evaluation values) do not survive encoding/json; use the non-finite-safe wrapper convention (obs.JSONFloat)",
				owner.Obj().Name(), field.Name(), t.Name())
		}
	case *types.Map:
		if b, ok := t.Key().Underlying().(*types.Basic); !ok || b.Kind() != types.String {
			mp.Reportf(pos,
				"wire field %s.%s is a map with non-string key type %s: encoding/json's key encoding is not a stable protocol surface; key by string or restructure as a slice of pairs",
				owner.Obj().Name(), field.Name(), t.Key().String())
		}
	case *types.Pointer:
		checkWireFieldType(mp, owner, field, t.Elem(), pos)
	case *types.Slice:
		checkWireFieldType(mp, owner, field, t.Elem(), pos)
	case *types.Array:
		checkWireFieldType(mp, owner, field, t.Elem(), pos)
	}
}

// wireClosure returns every named type reachable from roots through
// struct fields, pointers, slices, arrays, and map values, sorted by
// name for deterministic iteration. Sealed types (own MarshalJSON +
// UnmarshalJSON) stay in the closure (rule 4 applies to them) but are
// not descended into.
func wireClosure(roots map[*types.Named]bool, pkgs []*Package) []*types.Named {
	seen := map[*types.Named]bool{}
	var queue []*types.Named
	for n := range roots {
		queue = append(queue, n)
	}
	sort.Slice(queue, func(i, j int) bool { return queue[i].Obj().Name() < queue[j].Obj().Name() })
	var out []*types.Named
	var visitType func(t types.Type)
	visitType = func(t types.Type) {
		switch t := t.(type) {
		case *types.Named:
			if !seen[t] && definedInPkgs(t, pkgs) {
				queue = append(queue, t)
			}
		case *types.Pointer:
			visitType(t.Elem())
		case *types.Slice:
			visitType(t.Elem())
		case *types.Array:
			visitType(t.Elem())
		case *types.Map:
			visitType(t.Elem())
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, n)
		if hasJSONRoundTrip(n) {
			continue
		}
		if st, ok := n.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				visitType(st.Field(i).Type())
			}
		} else {
			visitType(n.Underlying())
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Obj(), out[j].Obj()
		if a.Pkg() != nil && b.Pkg() != nil && a.Pkg().Path() != b.Pkg().Path() {
			return a.Pkg().Path() < b.Pkg().Path()
		}
		return a.Name() < b.Name()
	})
	return out
}

// hasJSONRoundTrip reports whether t (or *t) declares both MarshalJSON
// and UnmarshalJSON.
func hasJSONRoundTrip(t *types.Named) bool {
	var marshal, unmarshal bool
	check := func(tt types.Type) {
		ms := types.NewMethodSet(tt)
		for i := 0; i < ms.Len(); i++ {
			switch ms.At(i).Obj().Name() {
			case "MarshalJSON":
				marshal = true
			case "UnmarshalJSON":
				unmarshal = true
			}
		}
	}
	check(t)
	check(types.NewPointer(t))
	return marshal && unmarshal
}

// namedOf unwraps pointers down to a named type, nil otherwise.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// definedInPkgs reports whether named is declared in one of the
// analyzed packages (the closure never descends into stdlib types).
func definedInPkgs(named *types.Named, pkgs []*Package) bool {
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	for _, pkg := range pkgs {
		if pkg.Types == obj.Pkg() {
			return true
		}
	}
	return false
}

// fieldPos finds the declaration position of field inside named's
// struct type by scanning the declaring package's syntax.
func fieldPos(named *types.Named, field *types.Var, pkgs []*Package) token.Pos {
	for _, pkg := range pkgs {
		if pkg.Types != named.Obj().Pkg() {
			continue
		}
		for _, f := range pkg.Files {
			var found token.Pos
			ast.Inspect(f, func(n ast.Node) bool {
				if found != token.NoPos {
					return false
				}
				ts, ok := n.(*ast.TypeSpec)
				if !ok || ts.Name.Name != named.Obj().Name() {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, fld := range st.Fields.List {
					for _, name := range fld.Names {
						if name.Name == field.Name() {
							found = name.Pos()
							return false
						}
					}
				}
				return true
			})
			if found != token.NoPos {
				return found
			}
		}
	}
	return token.NoPos
}
