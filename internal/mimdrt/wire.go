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
// per instruction otherwise.
//
// Before allocating anything sized by iterations, it refuses a program
// set with an instruction whose node is outside g or whose iteration is
// negative, a SEND or RECV whose peer is not a processor of the set, a
// SEND to its own processor, or iterations spanning more than
// max(8·instructions, 1<<20) instance slots (plan.ErrSparse's bound).
// Then it replays each processor's program against one shared table of
// what that processor holds, which the wired program needs anyway, and
// refuses a RECV that neither finds its value present nor finds it in
// the rest of its link (the pass would block forever), a COMPUTE whose
// operand is not present and a SEND of a value that is not. Each link
// carries its sender's SENDs in program order, and a RECV drains it up
// to the wanted message, keeping every value it reads. program.Build
// never emits a set wire refuses.
func wire(g *graph.Graph, progs []program.Program, grain, iters int) ([]proc, []chan message, error) {
	nodes, np := g.N(), len(progs)
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

	total, sends, maxIter := 0, 0, -1
	for p, pr := range progs {
		for i, in := range pr.Instrs {
			msg := in.Kind == program.OpSend || in.Kind == program.OpRecv
			if in.Node < 0 || in.Node >= nodes || in.Iter < 0 || msg && (in.Peer < 0 || in.Peer >= np) {
				return nil, nil, fmt.Errorf("%w: PE%d instr %d (%s node=%d iter=%d peer=%d) outside %d nodes and %d processors",
					errMalformed, p, i, in.Kind, in.Node, in.Iter, in.Peer, nodes, np)
			}
			if in.Kind == program.OpSend {
				if in.Peer == p {
					return nil, nil, fmt.Errorf("%w: PE%d instr %d sends (%s, %s %d) to its own processor",
						errMalformed, p, i, g.Nodes[in.Node].Name, unit, in.Iter)
				}
				sends++
			}
			maxIter = max(maxIter, in.Iter)
		}
		total += len(pr.Instrs)
	}
	if limit := max(8*total, 1<<20); nodes > 0 && maxIter >= limit/nodes {
		return nil, nil, fmt.Errorf("%w: %s %d of %d nodes for %d instructions is past the %d-slot bound",
			errMalformed, unit, maxIter, nodes, total, limit)
	}

	// Links are numbered per sender: linkTo[q] is the current sender's
	// link to q when linkFor[q] is that sender plus one. msgs holds every
	// link's messages in send order, link l's from first[l].
	linkFor, linkTo := make([]int32, np), make([]int32, np)
	sendLink := make([]int32, 0, sends)
	var from, to []int32
	for p, pr := range progs {
		for _, in := range pr.Instrs {
			if in.Kind != program.OpSend {
				continue
			}
			if linkFor[in.Peer] != int32(p+1) {
				linkFor[in.Peer], linkTo[in.Peer] = int32(p+1), int32(len(from))
				from, to = append(from, int32(p)), append(to, int32(in.Peer))
			}
			sendLink = append(sendLink, linkTo[in.Peer])
		}
	}
	first := make([]int, len(from)+1)
	for _, l := range sendLink {
		first[l+1]++
	}
	for l := range from {
		first[l+1] += first[l]
	}
	type chunkRef struct{ node, chunk int }
	msgs, sendPos := make([]chunkRef, sends), make([]int, sends)
	cursor := append([]int(nil), first[:len(from)]...)
	sent := 0
	for _, pr := range progs {
		for _, in := range pr.Instrs {
			if in.Kind == program.OpSend {
				l := sendLink[sent]
				msgs[cursor[l]], sendPos[sent] = chunkRef{in.Node, in.Iter}, cursor[l]
				cursor[l]++
				sent++
			}
		}
	}
	// cursor[l] is now where link l's receiver has drained it to.
	copy(cursor, first)
	// inLink[q] is the current receiver's link from q, or -1.
	inLink := make([]int32, np)
	for q := range inLink {
		inLink[q] = -1
	}
	byTo := make([][]int32, np)
	for l, q := range to {
		byTo[q] = append(byTo[q], int32(l))
	}

	// owner[c*N + v] is p+1 while processor p is replayed and holds chunk
	// (v, c), whose first value slot is then base[c*N + v].
	owner, base := make([]int32, (maxIter+1)*nodes), make([]int32, (maxIter+1)*nodes)
	procs, deg := make([]proc, np), maxInDegree(g)
	sent = 0
	for p, pr := range progs {
		w := &procs[p]
		self := int32(p + 1)
		nops, nopnd := 0, 0
		for _, l := range byTo[p] {
			inLink[from[l]] = l
			nops += first[l+1] - first[l]
		}
		for _, in := range pr.Instrs {
			if in.Kind == program.OpCompute {
				_, n := span(in.Iter)
				nopnd += n * len(g.In(in.Node))
			}
			if in.Kind != program.OpRecv {
				nops++
			}
		}
		w.ops, w.opnd = make([]op, 0, nops), make([]int32, 0, nopnd)
		slots := 0
		hold := func(idx, n int) int32 {
			if owner[idx] != self {
				owner[idx], base[idx] = self, int32(slots)
				slots += n
			}
			return base[idx]
		}
		for _, in := range pr.Instrs {
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
				for i := lo; i < lo+n; i++ {
					for _, ei := range g.In(in.Node) {
						e := g.Edges[ei]
						src := i - e.Distance
						if src < 0 {
							w.opnd = append(w.opnd, -1)
							continue
						}
						sc := src / grain
						switch sidx := sc*nodes + e.From; {
						case fresh && sidx == idx && src < i:
							// An earlier iteration of the chunk being computed.
							w.opnd = append(w.opnd, b+int32(src-lo))
						case owner[sidx] == self:
							w.opnd = append(w.opnd, base[sidx]+int32(src-sc*grain))
						default:
							return nil, nil, fmt.Errorf("mimdrt: PE%d: compute (%s, iter %d): operand (%s, iter %d) not available locally",
								p, g.Nodes[in.Node].Name, i, g.Nodes[e.From].Name, src)
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
				w.ops = append(w.ops, op{kind: opPut, n: int32(n), link: sendLink[sent], slot: slot, off: sendPos[sent]})
				sent++
			case program.OpRecv:
				if owner[idx] == self {
					continue
				}
				l := inLink[in.Peer]
				found := false
				for l >= 0 && !found && cursor[l] < first[l+1] {
					m := msgs[cursor[l]]
					cursor[l]++
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
		for _, l := range byTo[p] {
			inLink[from[l]] = -1
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
	links := make([]chan message, len(from))
	for l := range links {
		if c := cursor[l] - first[l]; c > 0 {
			links[l] = make(chan message, c)
		}
	}
	for p := range procs {
		w := &procs[p]
		kept, blocks := w.ops[:0], 0
		for _, o := range w.ops {
			if o.kind == opPut {
				if o.off >= cursor[o.link] {
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
