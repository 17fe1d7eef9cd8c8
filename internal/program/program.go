// Package program lowers a static schedule to per-processor instruction
// streams of COMPUTE / SEND / RECV operations — the form in which the
// parallelized loop actually executes on an asynchronous MIMD machine
// (paper Figures 7(e) and 10). The streams synchronize purely through
// messages: a SEND is emitted right after the producing compute, and a RECV
// right before the earliest consumer on the destination processor, so
// execution is correct under any communication timing.
package program

import (
	"fmt"

	"mimdloop/internal/graph"
	"mimdloop/internal/plan"
)

// OpKind discriminates instruction types.
type OpKind int8

const (
	// OpCompute executes one dynamic node instance.
	OpCompute OpKind = iota
	// OpSend ships the value of instance (Node, Iter) to processor Peer.
	OpSend
	// OpRecv blocks until the value of instance (Node, Iter) arrives from
	// processor Peer.
	OpRecv
)

func (k OpKind) String() string {
	switch k {
	case OpCompute:
		return "compute"
	case OpSend:
		return "send"
	case OpRecv:
		return "recv"
	}
	return fmt.Sprintf("OpKind(%d)", int8(k))
}

// Instr is one instruction of a processor's stream.
type Instr struct {
	Kind OpKind
	// Node, Iter identify the value: the instance computed, sent or
	// received.
	Node int
	Iter int
	// Peer is the destination (send) or source (recv) processor.
	Peer int
	// Cost is the communication cost of the message in cycles (sends
	// only); when several dependence edges share one message it is their
	// maximum.
	Cost int
}

// Program is one processor's instruction stream.
type Program struct {
	Proc   int
	Instrs []Instr
}

// MsgKey identifies a message: one value moving between two processors.
// Each needed (value, src, dst) triple is sent exactly once, regardless of
// how many dependence edges it serves.
type MsgKey struct {
	Node, Iter int
	From, To   int
}

// Build lowers the schedule to one program per processor (indices
// 0..Processors-1; processors with no work get empty programs). It returns
// an error if the schedule misses a producer for any dependence.
//
// Grain-G schedules lower in chunk space: instructions reference chunk
// indices, one COMPUTE stands for G fused iterations, and messages are
// discovered over the chunk graph's boundary dependences — so a chunk of
// values crossing processors costs one SEND/RECV pair, not G.
func Build(s *plan.Schedule) ([]Program, error) {
	g := s.EffectiveGraph()
	idx, err := s.Index()
	if err != nil {
		return nil, err
	}
	byProc := s.ByProc()

	// Discover messages: for each cross-processor dependence, record the
	// earliest consuming placement per (value, dst) and the max edge cost.
	// Each producer placement links its messages in destination order
	// (its sends), and each first consumer links the messages it waits
	// for in (source, iteration, node) order (its receives).
	type message struct {
		key           MsgKey
		firstConsumer int
		cost          int
		nextSend      int32
		nextRecv      int32
	}
	msgs := make([]message, 0, len(s.Placements))
	heads := make([]int32, 2*len(s.Placements))
	for i := range heads {
		heads[i] = -1
	}
	sendHead, recvHead := heads[:len(s.Placements)], heads[len(s.Placements):]
	for pi, p := range s.Placements {
		for _, ei := range g.In(p.Node) {
			e := g.Edges[ei]
			srcIter := p.Iter - e.Distance
			if srcIter < 0 {
				continue
			}
			prodIdx := idx.Get(e.From, srcIter)
			if prodIdx < 0 {
				return nil, fmt.Errorf("program: (%s, iter %d) has no producer for %s",
					g.Nodes[p.Node].Name, p.Iter, g.Nodes[e.From].Name)
			}
			prod := s.Placements[prodIdx]
			if prod.Proc == p.Proc {
				continue
			}
			cost := graph.EdgeCost(e, s.Timing.CommCost)
			prev, m := int32(-1), sendHead[prodIdx]
			for m >= 0 && msgs[m].key.To < p.Proc {
				prev, m = m, msgs[m].nextSend
			}
			if m >= 0 && msgs[m].key.To == p.Proc {
				msgs[m].cost = max(msgs[m].cost, cost)
				if earlier(s, pi, msgs[m].firstConsumer) {
					msgs[m].firstConsumer = pi
				}
				continue
			}
			msgs = append(msgs, message{
				key:           MsgKey{Node: e.From, Iter: srcIter, From: prod.Proc, To: p.Proc},
				firstConsumer: pi, cost: cost, nextSend: m,
			})
			if prev < 0 {
				sendHead[prodIdx] = int32(len(msgs) - 1)
			} else {
				msgs[prev].nextSend = int32(len(msgs) - 1)
			}
		}
	}

	// Link every receive to its first consumer.
	for mi := range msgs {
		c := msgs[mi].firstConsumer
		prev, m := int32(-1), recvHead[c]
		for m >= 0 && recvBefore(msgs[m].key, msgs[mi].key) {
			prev, m = m, msgs[m].nextRecv
		}
		msgs[mi].nextRecv = m
		if prev < 0 {
			recvHead[c] = int32(mi)
		} else {
			msgs[prev].nextRecv = int32(mi)
		}
	}

	// One instruction array backs every program: a compute per placement
	// and a send and a receive per message.
	progs := make([]Program, len(byProc))
	instrs := make([]Instr, 0, len(s.Placements)+2*len(msgs))
	for proc, placements := range byProc {
		progs[proc].Proc = proc
		if len(placements) == 0 {
			continue
		}
		start := len(instrs)
		for _, pi := range placements {
			p := s.Placements[pi]
			for m := recvHead[pi]; m >= 0; m = msgs[m].nextRecv {
				key := msgs[m].key
				instrs = append(instrs, Instr{Kind: OpRecv, Node: key.Node, Iter: key.Iter, Peer: key.From})
			}
			instrs = append(instrs, Instr{Kind: OpCompute, Node: p.Node, Iter: p.Iter})
			for m := sendHead[pi]; m >= 0; m = msgs[m].nextSend {
				key := msgs[m].key
				instrs = append(instrs, Instr{Kind: OpSend, Node: key.Node, Iter: key.Iter, Peer: key.To, Cost: msgs[m].cost})
			}
		}
		progs[proc].Instrs = instrs[start:len(instrs):len(instrs)]
	}
	return progs, nil
}

// earlier orders placements by (start, iteration, node) for deterministic
// first-consumer selection.
func earlier(s *plan.Schedule, a, b int) bool {
	pa, pb := s.Placements[a], s.Placements[b]
	if pa.Start != pb.Start {
		return pa.Start < pb.Start
	}
	if pa.Iter != pb.Iter {
		return pa.Iter < pb.Iter
	}
	return pa.Node < pb.Node
}

// recvBefore orders the receives ahead of one consumer by source
// processor, then iteration, then node.
func recvBefore(a, b MsgKey) bool {
	if a.From != b.From {
		return a.From < b.From
	}
	if a.Iter != b.Iter {
		return a.Iter < b.Iter
	}
	return a.Node < b.Node
}

// Stats summarizes a program set.
type Stats struct {
	Computes, Sends, Recvs int
}

// Summarize counts instruction kinds across all programs.
func Summarize(progs []Program) Stats {
	var st Stats
	for _, p := range progs {
		for _, in := range p.Instrs {
			switch in.Kind {
			case OpCompute:
				st.Computes++
			case OpSend:
				st.Sends++
			case OpRecv:
				st.Recvs++
			}
		}
	}
	return st
}
