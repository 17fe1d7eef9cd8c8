// Package progtest holds the program-set fixtures that the simulator's,
// the goroutine runtime's and the lowering digest's tests share: the
// fuzz targets' starting sets, the malformed rewrites of a lowered set,
// and the program wire codec the fuzz inputs are written in. Only tests
// import it.
package progtest

import (
	"mimdloop/internal/core"
	"mimdloop/internal/program"
	"mimdloop/internal/workload"
)

// FuzzBases returns the program sets the figure 7 fuzz targets start
// from: figure 7 for 20 iterations at (p, k) = (2, 2) and (3, 3), and
// Streams(1, 5, 2), which has figure 7's five nodes, at grain 4 for 40
// iterations on 3 processors, a chunk-space set.
func FuzzBases() ([][]program.Program, error) {
	g := workload.Figure7().Graph
	var bases [][]program.Program
	for _, opts := range []core.Options{{Processors: 2, CommCost: 2}, {Processors: 3, CommCost: 3}} {
		ls, err := core.ScheduleLoop(g, opts, 20)
		if err != nil {
			return nil, err
		}
		progs, err := program.Build(ls.Full)
		if err != nil {
			return nil, err
		}
		bases = append(bases, progs)
	}
	streams, err := workload.Streams(1, 5, 2)
	if err != nil {
		return nil, err
	}
	ls, err := core.ScheduleLoop(streams, core.Options{Processors: 3, CommCost: 2, Grain: 4}, 40)
	if err != nil {
		return nil, err
	}
	progs, err := program.Build(ls.Full)
	if err != nil {
		return nil, err
	}
	return append(bases, progs), nil
}

// Mutation rewrites a copy of a program set; Apply returns nil when the
// set has no message to rewrite.
type Mutation struct {
	Name  string
	Apply func([]program.Program) []program.Program
}

// Mutations are malformed program sets. On the simulated machine all but
// the duplicated send deadlock, each through a different path: a RECV
// whose message nothing sends, a RECV whose message is sent only in
// reply to a SEND placed after it, and a processor waiting on a message
// it sends itself later.
var Mutations = []Mutation{
	{"drop-send", func(progs []program.Program) []program.Program {
		p, i := firstSend(progs)
		if p < 0 {
			return nil
		}
		out := clone(progs)
		out[p].Instrs = append(out[p].Instrs[:i], out[p].Instrs[i+1:]...)
		return out
	}},
	{"recv-wrong-peer", func(progs []program.Program) []program.Program {
		for p, pr := range progs {
			for i, in := range pr.Instrs {
				if in.Kind != program.OpRecv {
					continue
				}
				// With two processors the only wrong peer is p itself.
				out := clone(progs)
				peer := (in.Peer + 1) % len(progs)
				if peer == p && len(progs) > 2 {
					peer = (peer + 1) % len(progs)
				}
				out[p].Instrs[i].Peer = peer
				return out
			}
		}
		return nil
	}},
	{"recv-before-own-send", func(progs []program.Program) []program.Program {
		// p waits for q to return the value p sends it only afterwards,
		// and q returns it only once it has received it.
		p, i := firstSend(progs)
		if p < 0 {
			return nil
		}
		send := progs[p].Instrs[i]
		q := send.Peer
		out := clone(progs)
		for j, in := range out[q].Instrs {
			if in.Kind == program.OpRecv && in.Node == send.Node && in.Iter == send.Iter && in.Peer == p {
				insert(out, q, j+1, program.Instr{Kind: program.OpSend, Node: send.Node, Iter: send.Iter, Peer: p, Cost: send.Cost})
				break
			}
		}
		insert(out, p, i, program.Instr{Kind: program.OpRecv, Node: send.Node, Iter: send.Iter, Peer: q})
		return out
	}},
	{"recv-from-self", func(progs []program.Program) []program.Program {
		p, i := firstSend(progs)
		if p < 0 {
			return nil
		}
		send := progs[p].Instrs[i]
		out := clone(progs)
		insert(out, p, i+1, program.Instr{Kind: program.OpSend, Node: send.Node, Iter: send.Iter, Peer: p, Cost: send.Cost})
		insert(out, p, i, program.Instr{Kind: program.OpRecv, Node: send.Node, Iter: send.Iter, Peer: p})
		return out
	}},
	{"duplicate-send", func(progs []program.Program) []program.Program {
		// The copy, sent last and 5 cycles dearer, overwrites the
		// first arrival wherever the receiver has not yet read it.
		p, i := firstSend(progs)
		if p < 0 {
			return nil
		}
		dup := progs[p].Instrs[i]
		dup.Cost += 5
		out := clone(progs)
		out[p].Instrs = append(out[p].Instrs, dup)
		return out
	}},
}

// firstSend returns the processor and index of the first SEND in
// processor order, or -1, -1.
func firstSend(progs []program.Program) (int, int) {
	for p, pr := range progs {
		for i, in := range pr.Instrs {
			if in.Kind == program.OpSend {
				return p, i
			}
		}
	}
	return -1, -1
}

// clone deep-copies a program set.
func clone(progs []program.Program) []program.Program {
	out := make([]program.Program, len(progs))
	for p, pr := range progs {
		out[p] = program.Program{Proc: pr.Proc, Instrs: append([]program.Instr(nil), pr.Instrs...)}
	}
	return out
}

// insert inserts in before index i of processor p's program.
func insert(progs []program.Program, p, i int, in program.Instr) {
	ins := progs[p].Instrs
	ins = append(ins[:i], append([]program.Instr{in}, ins[i:]...)...)
	progs[p].Instrs = ins
}
