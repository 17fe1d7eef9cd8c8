package plan

import (
	"errors"
	"fmt"
)

// Table is a dense instance table: one int32 slot per dynamic instance
// (node, iter) of an N-node graph, at iter*N + node, holding a placement
// index or a count. An instance with nothing stored reads -1. By Lemma 7
// an n-iteration schedule places exactly n*N instances, so the scheduling
// chain indexes instances by position instead of hashing them.
//
// A table grows by whole iterations when Set reaches past its end, so
// Cyclic-sched can fill one without knowing its unwinding horizon.
type Table struct {
	nodes int
	slots []int32
}

// NewTable returns an empty table for a graph of nodes nodes with room
// for iters iterations.
func NewTable(nodes, iters int) Table {
	t := Table{nodes: nodes}
	t.grow(iters)
	return t
}

// Get returns the value stored for instance (node, iter), or -1 when none
// is. iter must be non-negative.
func (t *Table) Get(node, iter int) int {
	i := iter*t.nodes + node
	if i >= len(t.slots) {
		return -1
	}
	return int(t.slots[i])
}

// Set stores v for instance (node, iter), growing the table when iter
// lies past its last iteration. iter must be non-negative and v must fit
// in an int32.
func (t *Table) Set(node, iter, v int) {
	i := iter*t.nodes + node
	if i >= len(t.slots) {
		t.grow(max(iter+1, 2*len(t.slots)/max(t.nodes, 1)))
	}
	t.slots[i] = int32(v)
}

// grow extends the table to iters iterations, filling the new slots
// with -1.
func (t *Table) grow(iters int) {
	n := iters * t.nodes
	if n <= len(t.slots) {
		return
	}
	old := len(t.slots)
	t.slots = append(t.slots, make([]int32, n-old)...)
	for i := old; i < n; i++ {
		t.slots[i] = -1
	}
}

// ErrSparse reports a schedule whose placements span too many
// iterations to index densely: more than max(8·placements, 1<<20)
// instance slots. Complete schedules fill every slot, and the incomplete
// ones the scheduler validates (Cyclic-sched's greedy prefixes) use a
// few per placement, so only a malformed or hostile schedule reaches it.
var ErrSparse = errors.New("plan: schedule too sparse to index")

// checkSpan refuses, before anything is allocated for it, a table of
// nodes nodes reaching iteration maxIter for a schedule of placements
// placements.
func checkSpan(nodes, maxIter, placements int) error {
	limit := max(8*placements, 1<<20)
	if nodes > 0 && maxIter >= limit/nodes {
		return fmt.Errorf("%w: iteration %d of %d nodes for %d placements is past the %d-slot bound",
			ErrSparse, maxIter, nodes, placements, limit)
	}
	return nil
}
