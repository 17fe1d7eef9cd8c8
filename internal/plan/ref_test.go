package plan_test

import (
	"fmt"
	"sort"

	"mimdloop/internal/graph"
	"mimdloop/internal/plan"
	"mimdloop/internal/program"
)

// The reference implementations below are Schedule.Validate and
// program.Build as they were before instance lookups moved to the dense
// plan.Table: every instance lookup hashes a graph.InstanceID, messages
// live in a map keyed by program.MsgKey, and groups are ordered by a
// reflective sort. They are the oracles the golden, mutation and fuzz
// tests of this package compare the production code against.

// refByProc is the reference Schedule.ByProc.
func refByProc(s *plan.Schedule) [][]int {
	n := s.Processors
	for _, p := range s.Placements {
		if p.Proc+1 > n {
			n = p.Proc + 1
		}
	}
	out := make([][]int, n)
	for i, p := range s.Placements {
		out[p.Proc] = append(out[p.Proc], i)
	}
	for _, grp := range out {
		sort.Slice(grp, func(a, b int) bool {
			pa, pb := s.Placements[grp[a]], s.Placements[grp[b]]
			if pa.Start != pb.Start {
				return pa.Start < pb.Start
			}
			return pa.Iter < pb.Iter
		})
	}
	return out
}

// refIndex is the reference Schedule.Index.
func refIndex(s *plan.Schedule) map[graph.InstanceID]int {
	idx := make(map[graph.InstanceID]int, len(s.Placements))
	for i, p := range s.Placements {
		idx[p.Key()] = i
	}
	return idx
}

// refValidate is the reference Schedule.Validate.
func refValidate(s *plan.Schedule, complete bool) error {
	g := s.EffectiveGraph()
	idx := make(map[graph.InstanceID]int, len(s.Placements))
	for i, p := range s.Placements {
		if p.Node < 0 || p.Node >= g.N() {
			return fmt.Errorf("plan: placement %d references unknown node %d", i, p.Node)
		}
		if p.Iter < 0 {
			return fmt.Errorf("plan: placement %d has negative iteration", i)
		}
		if p.Start < 0 {
			return fmt.Errorf("plan: placement %d starts at negative cycle %d", i, p.Start)
		}
		if p.Proc < 0 {
			return fmt.Errorf("plan: placement %d on negative processor", i)
		}
		if s.Processors > 0 && p.Proc >= s.Processors {
			return fmt.Errorf("plan: placement %d on processor %d, schedule declares %d", i, p.Proc, s.Processors)
		}
		if prev, dup := idx[p.Key()]; dup {
			return fmt.Errorf("plan: instance (%s, iter %d) placed twice (placements %d and %d)",
				g.Nodes[p.Node].Name, p.Iter, prev, i)
		}
		idx[p.Key()] = i
	}
	for proc, grp := range refByProc(s) {
		for j := 1; j < len(grp); j++ {
			prev := s.Placements[grp[j-1]]
			cur := s.Placements[grp[j]]
			if prev.Start+g.Nodes[prev.Node].Latency > cur.Start {
				return fmt.Errorf("plan: processor %d overlap: (%s,%d)@%d and (%s,%d)@%d",
					proc, g.Nodes[prev.Node].Name, prev.Iter, prev.Start,
					g.Nodes[cur.Node].Name, cur.Iter, cur.Start)
			}
		}
	}
	for i, p := range s.Placements {
		for _, ei := range g.In(p.Node) {
			e := g.Edges[ei]
			srcIter := p.Iter - e.Distance
			if srcIter < 0 {
				continue
			}
			pi, ok := idx[graph.InstanceID{Node: e.From, Iter: srcIter}]
			if !ok {
				return fmt.Errorf("plan: placement %d (%s, iter %d) depends on unplaced (%s, iter %d)",
					i, g.Nodes[p.Node].Name, p.Iter, g.Nodes[e.From].Name, srcIter)
			}
			prod := s.Placements[pi]
			avail := s.Timing.Avail(prod, g.Nodes[prod.Node].Latency, e, p.Proc)
			if p.Start < avail {
				return fmt.Errorf("plan: (%s, iter %d)@%d on P%d starts before (%s, iter %d) is available (cycle %d)",
					g.Nodes[p.Node].Name, p.Iter, p.Start, p.Proc, g.Nodes[e.From].Name, srcIter, avail)
			}
		}
	}
	if complete {
		iters := s.Iterations()
		if len(s.Placements) != iters*g.N() {
			return fmt.Errorf("plan: %d placements for %d iterations of %d nodes (want %d)",
				len(s.Placements), iters, g.N(), iters*g.N())
		}
	}
	return nil
}

// refBuild is the reference program.Build.
func refBuild(s *plan.Schedule) ([]program.Program, error) {
	g := s.EffectiveGraph()
	idx := refIndex(s)
	byProc := refByProc(s)

	type msgInfo struct {
		firstConsumer int
		cost          int
	}
	msgs := make(map[program.MsgKey]*msgInfo)
	for pi, p := range s.Placements {
		for _, ei := range g.In(p.Node) {
			e := g.Edges[ei]
			srcIter := p.Iter - e.Distance
			if srcIter < 0 {
				continue
			}
			prodIdx, ok := idx[graph.InstanceID{Node: e.From, Iter: srcIter}]
			if !ok {
				return nil, fmt.Errorf("program: (%s, iter %d) has no producer for %s",
					g.Nodes[p.Node].Name, p.Iter, g.Nodes[e.From].Name)
			}
			prod := s.Placements[prodIdx]
			if prod.Proc == p.Proc {
				continue
			}
			key := program.MsgKey{Node: e.From, Iter: srcIter, From: prod.Proc, To: p.Proc}
			info := msgs[key]
			if info == nil {
				info = &msgInfo{firstConsumer: pi, cost: graph.EdgeCost(e, s.Timing.CommCost)}
				msgs[key] = info
			} else {
				if c := graph.EdgeCost(e, s.Timing.CommCost); c > info.cost {
					info.cost = c
				}
				if refEarlier(s, pi, info.firstConsumer) {
					info.firstConsumer = pi
				}
			}
		}
	}

	recvsBefore := make(map[int][]program.MsgKey)
	sendsAfter := make(map[int][]program.MsgKey)
	for key, info := range msgs {
		recvsBefore[info.firstConsumer] = append(recvsBefore[info.firstConsumer], key)
		prodIdx := idx[graph.InstanceID{Node: key.Node, Iter: key.Iter}]
		sendsAfter[prodIdx] = append(sendsAfter[prodIdx], key)
	}
	for _, list := range recvsBefore {
		refSortKeys(list, true)
	}
	for _, list := range sendsAfter {
		refSortKeys(list, false)
	}

	progs := make([]program.Program, len(byProc))
	for proc, placements := range byProc {
		progs[proc].Proc = proc
		for _, pi := range placements {
			p := s.Placements[pi]
			for _, key := range recvsBefore[pi] {
				progs[proc].Instrs = append(progs[proc].Instrs, program.Instr{
					Kind: program.OpRecv, Node: key.Node, Iter: key.Iter, Peer: key.From,
				})
			}
			progs[proc].Instrs = append(progs[proc].Instrs, program.Instr{
				Kind: program.OpCompute, Node: p.Node, Iter: p.Iter,
			})
			for _, key := range sendsAfter[pi] {
				progs[proc].Instrs = append(progs[proc].Instrs, program.Instr{
					Kind: program.OpSend, Node: key.Node, Iter: key.Iter, Peer: key.To,
					Cost: msgs[key].cost,
				})
			}
		}
	}
	return progs, nil
}

func refEarlier(s *plan.Schedule, a, b int) bool {
	pa, pb := s.Placements[a], s.Placements[b]
	if pa.Start != pb.Start {
		return pa.Start < pb.Start
	}
	if pa.Iter != pb.Iter {
		return pa.Iter < pb.Iter
	}
	return pa.Node < pb.Node
}

func refSortKeys(keys []program.MsgKey, byFrom bool) {
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if byFrom && a.From != b.From {
			return a.From < b.From
		}
		if !byFrom && a.To != b.To {
			return a.To < b.To
		}
		if a.Iter != b.Iter {
			return a.Iter < b.Iter
		}
		return a.Node < b.Node
	})
}
