package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// lintFixtureDirs loads several fixture packages through one loader —
// so cross-fixture imports resolve to the same type-checked packages —
// and runs the given analyzers over the whole group.
func lintFixtureDirs(t *testing.T, rels []string, analyzers ...*Analyzer) ([]*Package, []Diagnostic) {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	var pkgs []*Package
	for _, rel := range rels {
		pkg, err := l.LoadDir(filepath.Join("testdata", "src", filepath.FromSlash(rel)))
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", rel, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, Lint(pkgs, analyzers)
}

// detflowFixtureDirs is the cross-package fixture group every call
// graph and detflow test shares.
var detflowFixtureDirs = []string{
	"detflow/internal/timeutil",
	"detflow/internal/rng",
	"detflow/internal/search",
	"detflow/internal/spec",
}

// findNode locates a graph node by its chain label (pkg.Func or
// pkg.Type.Method).
func findNode(g *CallGraph, label string) *CallNode {
	for _, n := range g.Nodes() {
		if n.Label() == label {
			return n
		}
	}
	return nil
}

// edgeTo reports whether from has an out-edge of the given kind to the
// node labeled callee.
func edgeTo(from *CallNode, callee string, kind EdgeKind) bool {
	for _, e := range from.Out {
		if e.Callee.Label() == callee && e.Kind == kind {
			return true
		}
	}
	return false
}

// TestCallGraphEdges pins the three edge resolutions the taint engine
// depends on: direct cross-package calls, conservative interface
// dispatch (class hierarchy), and conservative func-value calls — both
// the captured-method-value and the function-typed-field shape.
func TestCallGraphEdges(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	var pkgs []*Package
	for _, rel := range detflowFixtureDirs {
		pkg, err := l.LoadDir(filepath.Join("testdata", "src", filepath.FromSlash(rel)))
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", rel, err)
		}
		pkgs = append(pkgs, pkg)
	}
	g := BuildCallGraph(pkgs)

	cases := []struct {
		from, to string
		kind     EdgeKind
	}{
		// Pick() calls timeutil.Stamp() across the package boundary.
		{"search.Pick", "timeutil.Stamp", EdgeDirect},
		// Drive(s sampler) calls s.Sample(): class-hierarchy analysis
		// must add the conservative edge to the one implementation.
		{"search.Drive", "timeutil.Jitter.Sample", EdgeInterface},
		// Hedge captures j.Sample as a method value and calls it later.
		{"search.Hedge", "timeutil.Jitter.Sample", EdgeFuncValue},
		// RunPlan calls through a function-typed struct field; the
		// address-taken index resolves it by signature.
		{"search.RunPlan", "timeutil.Jitter.Sample", EdgeFuncValue},
	}
	for _, c := range cases {
		from := findNode(g, c.from)
		if from == nil {
			t.Fatalf("no node labeled %q in the graph", c.from)
		}
		if !edgeTo(from, c.to, c.kind) {
			var got []string
			for _, e := range from.Out {
				got = append(got, e.Kind.String()+"→"+e.Callee.Label())
			}
			t.Errorf("missing %s edge %s → %s; out-edges: %v", c.kind, c.from, c.to, got)
		}
	}

	// Calls into the sanitized rng fixture still appear in the graph
	// (the analyzer, not the graph, decides what propagates).
	if n := findNode(g, "search.Seeded"); n == nil || !edgeTo(n, "rng.Jitter", EdgeDirect) {
		t.Errorf("search.Seeded should have a direct edge to rng.Jitter")
	}
}

// TestDetFlowFixture drives the taint engine over the cross-package
// fixture group and checks every finding against the want comments,
// including the negative cases (sorted map ranges, sanitized rng
// package).
func TestDetFlowFixture(t *testing.T) {
	pkgs, diags := lintFixtureDirs(t, detflowFixtureDirs, DetFlow)
	checkWantsAll(t, pkgs, diags)

	// The direct cross-package finding must carry the full chain.
	var chain []ChainHop
	for _, d := range diags {
		if strings.Contains(d.Message, "via search.Pick") {
			chain = d.Chain
		}
	}
	if len(chain) != 3 {
		t.Fatalf("Pick→Stamp finding carries %d chain hops, want 3 (root, helper, source): %+v", len(chain), chain)
	}
	for i, want := range []string{"search.Pick", "timeutil.Stamp", "time.Now"} {
		if chain[i].Func != want {
			t.Errorf("chain hop %d = %q, want %q", i, chain[i].Func, want)
		}
		if !chain[i].Pos.IsValid() {
			t.Errorf("chain hop %d (%s) has no position", i, chain[i].Func)
		}
	}
}

// TestDetFlowCatchesWhatNoDetermMisses is the acceptance fixture for
// the interprocedural engine: run the old per-file analyzer and the
// new taint engine side by side over the same packages. nodeterm —
// scoped to the hot path, blind across calls — must report nothing;
// detflow must connect every hidden clock read to a root.
func TestDetFlowCatchesWhatNoDetermMisses(t *testing.T) {
	_, diags := lintFixtureDirs(t, detflowFixtureDirs, NoDeterm, DetFlow)
	var fromNoDeterm, fromDetFlow int
	for _, d := range diags {
		switch d.Analyzer {
		case "nodeterm":
			fromNoDeterm++
			t.Errorf("nodeterm unexpectedly caught: %s", d.String())
		case "detflow":
			fromDetFlow++
		}
	}
	if fromDetFlow < 4 {
		t.Errorf("detflow found %d chains, want at least 4 (direct, interface, map order, captured value)", fromDetFlow)
	}
	if fromNoDeterm != 0 {
		t.Errorf("the fixture no longer demonstrates the per-file blind spot (nodeterm found %d)", fromNoDeterm)
	}
}

func TestWireSafeFixture(t *testing.T) {
	pkgs, diags := lintFixtureDirs(t, []string{
		"wiresafe/internal/broker/remote",
		"wiresafe/client",
	}, WireSafe)
	checkWantsAll(t, pkgs, diags)
}

func TestLockShapeFixture(t *testing.T) {
	pkg, diags := lintFixture(t, "lockshape/internal/broker", LockShape)
	if !lockWaitScope(pkg.Path) {
		t.Fatalf("fixture path %q does not trip lockWaitScope; the blocked-channel rule is untested", pkg.Path)
	}
	checkWants(t, pkg, diags)
}
