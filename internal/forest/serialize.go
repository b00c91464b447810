package forest

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// ErrCorruptModel tags every structural validation failure in Load, so
// callers can distinguish a corrupt/adversarial model document from
// plain I/O errors with errors.Is.
var ErrCorruptModel = errors.New("forest: corrupt model")

// CorruptModelError pinpoints where a model document is broken. Node is
// -1 when the defect is tree-wide.
type CorruptModelError struct {
	Tree   int
	Node   int
	Reason string
}

func (e *CorruptModelError) Error() string {
	if e.Node < 0 {
		return fmt.Sprintf("forest: corrupt model: tree %d: %s", e.Tree, e.Reason)
	}
	return fmt.Sprintf("forest: corrupt model: tree %d node %d: %s", e.Tree, e.Node, e.Reason)
}

// Unwrap makes errors.Is(err, ErrCorruptModel) true.
func (e *CorruptModelError) Unwrap() error { return ErrCorruptModel }

func corrupt(tree, node int, format string, a ...any) error {
	return &CorruptModelError{Tree: tree, Node: node, Reason: fmt.Sprintf(format, a...)}
}

// The wire format for fitted models: a versioned JSON document. In the
// paper's workflow the surrogate is built on one machine and shipped to
// wherever the next tuning run happens; serialization is what makes the
// "reuse autotuning knowledge" story practical.

type jsonNode struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t,omitempty"`
	Left      int     `json:"l,omitempty"`
	Right     int     `json:"r,omitempty"`
	Value     float64 `json:"v"`
	Count     int     `json:"n"`
	Gain      float64 `json:"g,omitempty"`
}

type jsonTree struct {
	Nodes []jsonNode `json:"nodes"`
}

type jsonForest struct {
	Version  int        `json:"version"`
	Features int        `json:"features"`
	Trees    []jsonTree `json:"trees"`
	OOBError float64    `json:"oob_error,omitempty"`
	OOBValid bool       `json:"oob_valid,omitempty"`
}

const wireVersion = 1

// Save writes the fitted forest as JSON.
func (f *Forest) Save(w io.Writer) error {
	doc := jsonForest{
		Version:  wireVersion,
		Features: f.nf,
		OOBError: f.oobError,
		OOBValid: f.oobValid,
	}
	for _, t := range f.trees {
		jt := jsonTree{Nodes: make([]jsonNode, len(t.nodes))}
		for i, n := range t.nodes {
			st := t.stats[i]
			jn := jsonNode{Feature: int(n.feature), Value: st.mean, Count: st.count, Gain: st.gain}
			if n.feature >= 0 {
				jn.Threshold, jn.Left, jn.Right = n.val, int(n.left), int(n.right)
			}
			jt.Nodes[i] = jn
		}
		doc.Trees = append(doc.Trees, jt)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// Load reads a forest saved by Save and validates its structure.
func Load(r io.Reader) (*Forest, error) {
	var doc jsonForest
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("forest: decoding: %w", err)
	}
	if doc.Version != wireVersion {
		return nil, fmt.Errorf("forest: unsupported version %d", doc.Version)
	}
	if doc.Features <= 0 || doc.Features > math.MaxInt32 || len(doc.Trees) == 0 {
		return nil, fmt.Errorf("forest: empty or invalid document")
	}
	f := &Forest{nf: doc.Features, oobError: doc.OOBError, oobValid: doc.OOBValid}
	for ti, jt := range doc.Trees {
		if len(jt.Nodes) == 0 {
			return nil, corrupt(ti, -1, "tree is empty")
		}
		if len(jt.Nodes) > math.MaxInt32 {
			return nil, corrupt(ti, -1, "%d nodes overflow the int32 child index", len(jt.Nodes))
		}
		t := &Tree{nodes: make([]node, len(jt.Nodes)), stats: make([]nodeStats, len(jt.Nodes))}
		for i, jn := range jt.Nodes {
			if jn.Feature >= doc.Features {
				return nil, corrupt(ti, i, "references feature %d of %d", jn.Feature, doc.Features)
			}
			if math.IsNaN(jn.Value) || math.IsInf(jn.Value, 0) {
				return nil, corrupt(ti, i, "non-finite value %v", jn.Value)
			}
			if jn.Count < 0 {
				return nil, corrupt(ti, i, "negative sample count %d", jn.Count)
			}
			if jn.Feature >= 0 {
				if math.IsNaN(jn.Threshold) {
					return nil, corrupt(ti, i, "NaN split threshold")
				}
				if jn.Left < 0 || jn.Left >= len(jt.Nodes) ||
					jn.Right < 0 || jn.Right >= len(jt.Nodes) {
					return nil, corrupt(ti, i, "dangling children (%d, %d of %d)", jn.Left, jn.Right, len(jt.Nodes))
				}
				if jn.Left == jn.Right {
					return nil, corrupt(ti, i, "children collide (both %d)", jn.Left)
				}
			}
			// Leaves carry their prediction in val and drop the split
			// fields, so Save writes them canonically.
			n := node{val: jn.Value, feature: -1}
			if jn.Feature >= 0 {
				n = node{val: jn.Threshold, feature: int32(jn.Feature), left: int32(jn.Left), right: int32(jn.Right)}
			}
			t.nodes[i] = n
			t.stats[i] = nodeStats{mean: jn.Value, count: jn.Count, gain: jn.Gain}
		}
		if err := validateShape(ti, t.nodes); err != nil {
			return nil, err
		}
		f.trees = append(f.trees, t)
	}
	f.pack()
	return f, nil
}

// validateShape proves t.nodes is a proper binary tree rooted at node 0
// — the structural guarantee Tree.Predict relies on to terminate. The
// per-node checks above only reject local defects (dangling or
// self-referential children); a multi-node cycle (A→B→A), a shared
// subtree, or an orphaned region passes them and, before this walk
// existed, made Predict loop forever on an adversarial model file.
//
// Two passes suffice: (1) every node's indegree over the child edges
// must be 0 for the root and exactly 1 elsewhere — any cycle reachable
// from the root needs a doubly-parented entry node, and a cycle through
// the root gives the root a parent; (2) every node must be reachable
// from the root — which also rules out disconnected cycles, whose nodes
// can never be reached. Together they imply acyclicity, so every
// Predict descent strictly consumes unvisited nodes and terminates.
func validateShape(ti int, nodes []node) error {
	indeg := make([]int, len(nodes))
	for i, n := range nodes {
		if n.feature < 0 {
			continue
		}
		for _, c := range [2]int32{n.left, n.right} {
			indeg[c]++
			if c == 0 {
				return corrupt(ti, i, "cycle: root is a child of node %d", i)
			}
			if indeg[c] > 1 {
				return corrupt(ti, int(c), "cycle or shared subtree: node has %d parents", indeg[c])
			}
		}
	}
	seen := make([]bool, len(nodes))
	stack := []int{0}
	seen[0] = true
	visited := 1
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := nodes[i]
		if n.feature < 0 {
			continue
		}
		// indeg <= 1 everywhere makes revisits impossible here; children
		// are marked before pushing purely to keep the count exact.
		for _, c := range [2]int32{n.left, n.right} {
			if !seen[c] {
				seen[c] = true
				visited++
				stack = append(stack, int(c))
			}
		}
	}
	if visited != len(nodes) {
		for i, ok := range seen {
			if !ok {
				return corrupt(ti, i, "unreachable node (%d of %d reachable from the root)", visited, len(nodes))
			}
		}
	}
	return nil
}
