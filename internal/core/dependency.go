package core

import (
	"errors"
	"fmt"

	"ariesrh/internal/txn"
	"ariesrh/internal/wal"
)

// Form-dependency is the third ASSET primitive (with delegate and permit):
// it establishes structure-related inter-transaction dependencies checked
// at commit/abort time.  Two ACTA dependency kinds are supported:
//
//   - AbortDependency(dep, on): if `on` aborts, dep must abort.  Aborting
//     `on` cascades to every abort-dependent, transitively.
//   - CommitDependency(dep, on): dep may not commit while `on` is still
//     active; it must wait for `on` to terminate (commit OR abort — the
//     ACTA commit dependency only orders commits, it does not couple
//     fates).  Commit returns ErrDependencyPending rather than blocking,
//     so callers control waiting policy.
//
// Dependencies are volatile: a crash aborts every active transaction, so
// nothing needs recovering.  Biliris et al. note that forming a dependency
// requires a cycle check; FormDependency rejects dependency cycles.

// DependencyKind selects the ACTA dependency formed.
type DependencyKind int

// Dependency kinds.
const (
	// AbortDependency: the dependent aborts if the depended-on
	// transaction aborts.
	AbortDependency DependencyKind = iota
	// CommitDependency: the dependent may commit only after the
	// depended-on transaction has terminated.
	CommitDependency
)

// String names the kind.
func (k DependencyKind) String() string {
	if k == CommitDependency {
		return "commit-dependency"
	}
	return "abort-dependency"
}

// Errors for dependency processing.
var (
	// ErrDependencyPending is returned by Commit while a commit
	// dependency's target is still active.
	ErrDependencyPending = errors.New("core: commit dependency pending")
	// ErrDependencyCycle is returned by FormDependency when adding the
	// edge would create a dependency cycle.
	ErrDependencyCycle = errors.New("core: dependency cycle")
)

type depEdge struct {
	on   wal.TxID
	kind DependencyKind
}

// FormDependency establishes a dependency of dep on `on` (§1: ASSET's
// form-dependency "is done by adding edges to the dependency graph, after
// checking for certain cycles").
func (e *Engine) FormDependency(dep, on wal.TxID, kind DependencyKind) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.writableLocked(); err != nil {
		return err
	}
	if dep == on {
		return fmt.Errorf("core: self-dependency of t%d", dep)
	}
	r, err := e.activeInfo(dep)
	if err != nil {
		return err
	}
	if _, err := e.activeInfo(on); err != nil {
		return err
	}
	if e.dependencyPathLocked(on, dep) {
		return fmt.Errorf("%w: t%d already depends on t%d", ErrDependencyCycle, on, dep)
	}
	r.deps = append(r.deps, depEdge{on: on, kind: kind})
	e.depEdges++
	return nil
}

// dependencyPathLocked reports whether from transitively depends on to.
func (e *Engine) dependencyPathLocked(from, to wal.TxID) bool {
	seen := map[wal.TxID]bool{}
	var dfs func(tx wal.TxID) bool
	dfs = func(tx wal.TxID) bool {
		if tx == to {
			return true
		}
		if seen[tx] {
			return false
		}
		seen[tx] = true
		r := e.recs[tx]
		if r == nil {
			return false
		}
		for _, edge := range r.deps {
			if dfs(edge.on) {
				return true
			}
		}
		return false
	}
	return dfs(from)
}

// checkCommitDependenciesLocked returns ErrDependencyPending if r's
// transaction has a commit dependency on a still-active transaction.
func (e *Engine) checkCommitDependenciesLocked(r *record) error {
	for _, edge := range r.deps {
		if edge.kind != CommitDependency {
			continue
		}
		if on := e.recs[edge.on]; on != nil && on.Status == txn.Active {
			return fmt.Errorf("%w: t%d waits for t%d", ErrDependencyPending, r.ID, edge.on)
		}
	}
	return nil
}

// cascadeAbortsLocked aborts, transitively, every active transaction with
// an abort dependency on one of the just-aborted set.
func (e *Engine) cascadeAbortsLocked(aborted wal.TxID) error {
	if e.depEdges == 0 {
		return nil
	}
	// Collect dependents first: abortLocked mutates the table.
	var victims []wal.TxID
	for dep, r := range e.recs {
		for _, edge := range r.deps {
			if edge.on == aborted && edge.kind == AbortDependency && r.Status == txn.Active {
				victims = append(victims, dep)
			}
		}
	}
	for _, v := range victims {
		if r := e.recs[v]; r == nil || r.Status != txn.Active {
			continue // already gone via another cascade path
		}
		r, err := e.abortLocked(v)
		if err != nil {
			return fmt.Errorf("core: cascading abort of t%d: %w", v, err)
		}
		// Nobody waits on a victim's record: the top-level abort's
		// force covers the victim's records too.
		e.recycleLocked(r)
	}
	return nil
}
