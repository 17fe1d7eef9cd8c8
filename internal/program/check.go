package program

import (
	"fmt"

	"mimdloop/internal/graph"
)

// Link is a directed processor pair that carries at least one SEND.
type Link struct {
	From, To int32
	// Sends counts the SENDs on the link.
	Sends int32
}

// Layout is what Check learns about a program set in its one walk over
// the instructions. Instruction i of program p is number Start[p] + i of
// the set.
type Layout struct {
	// Start holds each program's first instruction number, and the
	// set's instruction count last.
	Start []int
	// Sends counts the SENDs, and MaxIter is the largest iteration an
	// instruction names, -1 when there is none.
	Sends, MaxIter int
	// Link holds, per instruction number, a SEND's link: its index in
	// Links. Other instructions' entries are zero. The caller owns Link
	// and may reuse it once it has read a SEND's link.
	Link []int32
	// Links holds one link per (from, to) pair that carries a SEND,
	// numbered in sender order and, within a sender, in the order of its
	// first SEND to each peer.
	Links []Link
}

// Check walks a program set for g once and numbers its links. It refuses
// a set with an instruction whose node is outside g or whose iteration
// is negative, a SEND or RECV whose peer is not a processor of the set,
// or iterations spanning more than max(8·instructions, 1<<20) instance
// slots (plan.ErrSparse's bound), without allocating anything sized by
// iterations. Each refusal wraps malformed, the caller's sentinel.
// Build never emits a set Check refuses.
func Check(g *graph.Graph, progs []Program, malformed error) (Layout, error) {
	nodes, np := g.N(), len(progs)
	start := make([]int, np+1)
	for p, pr := range progs {
		start[p+1] = start[p] + len(pr.Instrs)
	}
	total := start[np]
	// peer[2q+1] is the current sender's link to q when peer[2q] is that
	// sender plus one.
	buf := make([]int32, total+2*np)
	link, peer := buf[:total:total], buf[total:]
	var links []Link
	sends, maxIter := 0, -1
	for p, pr := range progs {
		base, self := start[p], int32(p+1)
		for i, in := range pr.Instrs {
			msg := in.Kind == OpSend || in.Kind == OpRecv
			if in.Node < 0 || in.Node >= nodes || in.Iter < 0 || msg && (in.Peer < 0 || in.Peer >= np) {
				return Layout{}, fmt.Errorf("%w: PE%d instr %d (%s node=%d iter=%d peer=%d) outside %d nodes and %d processors",
					malformed, p, i, in.Kind, in.Node, in.Iter, in.Peer, nodes, np)
			}
			maxIter = max(maxIter, in.Iter)
			if in.Kind != OpSend {
				continue
			}
			q := 2 * in.Peer
			if peer[q] != self {
				if links == nil {
					links = make([]Link, 0, min(np, total))
				}
				peer[q], peer[q+1] = self, int32(len(links))
				links = append(links, Link{From: int32(p), To: int32(in.Peer)})
			}
			l := peer[q+1]
			link[base+i] = l
			links[l].Sends++
			sends++
		}
	}
	if limit := max(8*total, 1<<20); nodes > 0 && maxIter >= limit/nodes {
		return Layout{}, fmt.Errorf("%w: iteration %d of %d nodes for %d instructions is past the %d-slot bound",
			malformed, maxIter, nodes, total, limit)
	}
	return Layout{Start: start, Sends: sends, MaxIter: maxIter, Link: link, Links: links}, nil
}
