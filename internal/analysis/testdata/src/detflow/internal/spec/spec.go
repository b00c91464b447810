// Package spec mirrors internal/spec's root rule: only the named
// stack builders (Base, Build, Driver) are deterministic roots, so the
// same source in any other function of the package is no finding.
package spec

import (
	"os"
	"time"
)

// Spec stands in for the evaluation spec.
type Spec struct {
	Seed uint64
}

// Build is a named root: a process-state read here would let two hosts
// build different stacks from one spec.
func (s Spec) Build() uint64 {
	return s.Seed ^ uint64(os.Getpid()) // want "detflow: os\.Getpid \(process state\) reaches deterministic root spec\.Spec\.Build"
}

// Stamp is exported but not named by the rule, so it is not a root.
func (s Spec) Stamp() int64 {
	return time.Now().UnixNano()
}
