package mimdrt

import (
	"errors"
	"fmt"
	"math"

	"mimdloop/internal/graph"
	"mimdloop/internal/program"
)

// errMalformed marks the program sets wire refuses because running them
// would crash or block forever.
var errMalformed = errors.New("mimdrt: malformed program set")

// opKind discriminates wired instructions.
type opKind uint8

const (
	// opCompute evaluates n iterations of node from iter into the n
	// slots from slot.
	opCompute opKind = iota
	// opPut ships the n values from slot on link.
	opPut
	// opTake receives n values from link into the n slots from slot.
	opTake
)

// op is one wired instruction. A COMPUTE becomes one opCompute, a SEND
// one opPut (or nothing, when no RECV ever takes its message) and a RECV
// one opTake per message it drains from its link (none when the value is
// already present).
type op struct {
	kind opKind
	node int32
	n    int32 // values: the real iterations of the chunk
	link int32
	slot int32 // first value slot of the chunk
	iter int   // a compute's first real iteration
	// off is a compute's first operand in proc.opnd and, for a put of
	// n != 1 values, its message buffer's first value in proc.block.
	off int
}

// proc is one processor's wired program and its state. Everything in it
// is sized by what that program touches.
type proc struct {
	ops []op
	// opnd holds, per computed instance, its operands' value slots in
	// incoming-edge order; -1 reads a boundary value.
	opnd  []int32
	vals  []float64
	block []float64 // message buffers of the puts that ship n != 1 values
	args  []float64 // operand scratch
}

// message carries one chunk's values between processors: inline when the
// chunk has one value, else as the sender's message buffer, which only
// its put writes. Wiring fixes which slots each message fills, so it
// carries no tag.
type message struct {
	val  float64
	vals []float64
}

// wire checks progs and resolves them for running on g, in chunk space
// of grain grain for iters real iterations when grain > 1, one iteration
// per instruction otherwise. It walks the instructions three times.
//
// program.Check refuses the sets the runtime would index out of range
// with, before anything is allocated for their iterations, and numbers
// the links. The second walk lays each link's messages out in send order,
// refuses a SEND to its own processor and sizes each processor's wired
// program. The third replays each processor's program against one
// shared table of what that processor holds, which the wired program
// needs anyway, and refuses a RECV that neither finds its value present
// nor finds it in the rest of its link (the pass would block forever), a
// COMPUTE whose operand is not present and a SEND of a value that is
// not. Each link carries its sender's SENDs in program order, and a RECV
// drains it up to the wanted message, keeping every value it reads.
// program.Build never emits a set wire refuses.
func wire(g *graph.Graph, progs []program.Program, grain, iters int) ([]proc, []chan message, error) {
	lay, err := program.Check(g, progs, errMalformed)
	if err != nil {
		return nil, nil, err
	}
	nodes, np, nl := g.N(), len(progs), len(lay.Links)
	plain := grain <= 1
	unit, chunks := "iter", 0
	if plain {
		grain = 1
	} else if unit = "chunk"; iters > 0 {
		chunks = (iters-1)/grain + 1
	}
	// span returns the first real iteration and the length of chunk c.
	span := func(c int) (int, int) {
		if plain {
			return c, 1
		}
		if c >= chunks {
			return 0, 0
		}
		return c * grain, min(grain, iters-c*grain)
	}

	// msgs holds every link's messages in send order, link l's from
	// first[l]. put[l] is where link l's next SEND goes, and taken[l]
	// how far its receiver has drained it.
	cur := make([]int, 3*nl+1)
	first, put, taken := cur[:nl+1], cur[nl+1:2*nl+1], cur[2*nl+1:]
	// The links into processor p are linked from into[p] through
	// nextInto; inLink[q] is the current receiver's link from q, or -1.
	idx := make([]int32, 2*np+nl)
	into, inLink, nextInto := idx[:np], idx[np:2*np], idx[2*np:]
	for p := range into {
		into[p], inLink[p] = -1, -1
	}
	for l, ln := range lay.Links {
		first[l+1] = first[l] + int(ln.Sends)
		nextInto[l], into[ln.To] = into[ln.To], int32(l)
	}
	copy(put, first)
	type chunkRef struct{ node, chunk int }
	msgs := make([]chunkRef, lay.Sends)
	procs := make([]proc, np)
	for p, pr := range progs {
		link := lay.Link[lay.Start[p]:lay.Start[p+1]]
		nops, nopnd := 0, 0
		for i, in := range pr.Instrs {
			switch in.Kind {
			case program.OpCompute:
				_, n := span(in.Iter)
				nopnd += n * len(g.In(in.Node))
			case program.OpSend:
				if in.Peer == p {
					return nil, nil, fmt.Errorf("%w: PE%d instr %d sends (%s, %s %d) to its own processor",
						errMalformed, p, i, g.Nodes[in.Node].Name, unit, in.Iter)
				}
				l := link[i]
				msgs[put[l]] = chunkRef{in.Node, in.Iter}
				put[l]++
			}
			if in.Kind != program.OpRecv {
				nops++
			}
		}
		for l := into[p]; l >= 0; l = nextInto[l] {
			nops += int(lay.Links[l].Sends)
		}
		procs[p].ops, procs[p].opnd = make([]op, 0, nops), make([]int32, 0, nopnd)
	}
	copy(put, first)
	copy(taken, first)

	// owner[c*N + v] is p+1 while processor p is replayed and holds chunk
	// (v, c), whose first value slot is then base[c*N + v].
	size := (lay.MaxIter + 1) * nodes
	tab := make([]int32, 2*size)
	owner, base := tab[:size], tab[size:]
	deg := maxInDegree(g)
	for p, pr := range progs {
		w := &procs[p]
		link := lay.Link[lay.Start[p]:lay.Start[p+1]]
		self := int32(p + 1)
		for l := into[p]; l >= 0; l = nextInto[l] {
			inLink[lay.Links[l].From] = l
		}
		slots := 0
		hold := func(idx, n int) int32 {
			if owner[idx] != self {
				owner[idx], base[idx] = self, int32(slots)
				slots += n
			}
			return base[idx]
		}
		for i, in := range pr.Instrs {
			idx := in.Iter*nodes + in.Node
			switch in.Kind {
			case program.OpCompute:
				lo, n := span(in.Iter)
				fresh := owner[idx] != self
				b := int32(slots)
				if !fresh {
					b = base[idx]
				}
				off := len(w.opnd)
				for it := lo; it < lo+n; it++ {
					for _, ei := range g.In(in.Node) {
						e := g.Edges[ei]
						src := it - e.Distance
						if src < 0 {
							w.opnd = append(w.opnd, -1)
							continue
						}
						sc := src / grain
						switch sidx := sc*nodes + e.From; {
						case fresh && sidx == idx && src < it:
							// An earlier iteration of the chunk being computed.
							w.opnd = append(w.opnd, b+int32(src-lo))
						case owner[sidx] == self:
							w.opnd = append(w.opnd, base[sidx]+int32(src-sc*grain))
						default:
							return nil, nil, fmt.Errorf("mimdrt: PE%d: compute (%s, iter %d): operand (%s, iter %d) not available locally",
								p, g.Nodes[in.Node].Name, it, g.Nodes[e.From].Name, src)
						}
					}
				}
				hold(idx, n)
				w.ops = append(w.ops, op{kind: opCompute, node: int32(in.Node), n: int32(n), slot: b, iter: lo, off: off})
			case program.OpSend:
				lo, n := span(in.Iter)
				if n > 0 && owner[idx] != self {
					return nil, nil, fmt.Errorf("mimdrt: PE%d: send of unknown value (%s, iter %d)", p, g.Nodes[in.Node].Name, lo)
				}
				var slot int32
				if owner[idx] == self {
					slot = base[idx]
				}
				// off holds the message's position in msgs until every
				// receiver has been replayed.
				l := link[i]
				w.ops = append(w.ops, op{kind: opPut, n: int32(n), link: l, slot: slot, off: put[l]})
				put[l]++
			case program.OpRecv:
				if owner[idx] == self {
					continue
				}
				l := inLink[in.Peer]
				found := false
				for l >= 0 && !found && taken[l] < first[l+1] {
					m := msgs[taken[l]]
					taken[l]++
					_, n := span(m.chunk)
					midx := m.chunk*nodes + m.node
					w.ops = append(w.ops, op{kind: opTake, node: int32(m.node), n: int32(n), link: l, slot: hold(midx, n)})
					found = midx == idx
				}
				if !found {
					return nil, nil, fmt.Errorf("%w: PE%d: recv (%s, %s %d) from PE%d: no SEND left on the link feeds it",
						errMalformed, p, g.Nodes[in.Node].Name, unit, in.Iter, in.Peer)
				}
			}
		}
		for l := into[p]; l >= 0; l = nextInto[l] {
			inLink[lay.Links[l].From] = -1
		}
		if slots > math.MaxInt32 {
			return nil, nil, fmt.Errorf("%w: PE%d holds %d values", errMalformed, p, slots)
		}
		w.vals = make([]float64, slots)
		w.args = make([]float64, deg)
	}

	// A put whose message no receive drained would fill its link for
	// nothing; drop it. Every link is buffered to exactly the messages
	// taken from it in one pass, so a put never blocks.
	links := make([]chan message, nl)
	for l := range links {
		if c := taken[l] - first[l]; c > 0 {
			links[l] = make(chan message, c)
		}
	}
	for p := range procs {
		w := &procs[p]
		kept, blocks := w.ops[:0], 0
		for _, o := range w.ops {
			if o.kind == opPut {
				if o.off >= taken[o.link] {
					continue
				}
				o.off = blocks
				if o.n != 1 {
					blocks += int(o.n)
				}
			}
			kept = append(kept, o)
		}
		w.ops = kept
		w.block = make([]float64, blocks)
	}
	return procs, links, nil
}
