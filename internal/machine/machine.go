// Package machine is the simulated asynchronous MIMD multiprocessor of the
// paper's Section 4: it executes per-processor instruction streams
// self-timed (each processor runs as fast as its program order and message
// arrivals allow), with fully-overlapped communication whose per-message
// run-time cost fluctuates between the compile-time estimate k and
// k + mm - 1. Compile-time schedules only determine placement and order;
// the simulator measures what actually happens when the communication
// estimate is wrong — the paper's robustness experiment (Table 1).
package machine

import (
	"errors"
	"fmt"
	"math"

	"mimdloop/internal/graph"
	"mimdloop/internal/plan"
	"mimdloop/internal/program"
)

// FluctModel is the machine's communication-cost fluctuation: each
// message's run-time latency is its compile-time cost plus an extra delay
// in [0, MM-1], the paper's mm parameter. The extra is derived by hashing
// the message identity together with Seed, so it is a pure function of
// (model, message): independent of execution interleaving, identical on
// every replay, and free of shared mutable state — concurrent simulations
// (and concurrent trials of one plan) never contend on a global random
// stream. Distinct seeds select distinct deterministic delay assignments,
// which is what makes repeated-trial measurement (RunTrials) meaningful.
type FluctModel struct {
	// MM bounds the extra delay: each message is slowed by a value in
	// [0, MM-1]. Values <= 1 mean no fluctuation.
	MM int
	// Seed selects the delay assignment.
	Seed int64
}

// Delay returns the model's extra latency for one message. It is
// deterministic per (model, key) and safe for concurrent use.
func (m FluctModel) Delay(key program.MsgKey) int {
	return m.delay(fnvWord(fnvOffset, m.Seed), key.Node, key.Iter, key.From, key.To)
}

// delay is Delay for a message (node, iter, from, to) given seeded, the
// FNV-64a state after the seed's 8 bytes, which a run computes once.
func (m FluctModel) delay(seeded uint64, node, iter, from, to int) int {
	if m.MM <= 1 {
		return 0
	}
	h := fnvWord(fnvWord(fnvWord(fnvWord(seeded, int64(node)), int64(iter)), int64(from)), int64(to))
	return int(h % uint64(m.MM))
}

// FNV-64a parameters. The fluctuation delay of a message is FNV-64a over
// 40 bytes: the seed, node, iteration, source and destination, each 8
// bytes little-endian.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnvPrimePow[k] is fnvPrime^k mod 2^64.
var fnvPrimePow = func() (pow [9]uint64) {
	pow[0] = 1
	for k := 1; k < len(pow); k++ {
		pow[k] = pow[k-1] * fnvPrime
	}
	return pow
}()

// fnvWord folds v's 8 little-endian bytes into FNV-64a state h. A zero
// byte leaves the xor step unchanged, so the zero bytes above v's
// highest non-zero byte fold into one multiply by a power of the prime:
// multiplication mod 2^64 is associative, and the result is exact.
func fnvWord(h uint64, v int64) uint64 {
	u, n := uint64(v), 0
	for ; u != 0; u >>= 8 {
		h = (h ^ u&0xff) * fnvPrime
		n++
	}
	return h * fnvPrimePow[8-n]
}

// Config controls run-time communication behaviour.
type Config struct {
	// Fluct is the paper's mm: each message's latency is its compile-time
	// cost plus a deterministic pseudo-random extra in [0, mm-1]. Values
	// <= 1 mean no fluctuation. Fluct and Seed together form the run's
	// FluctModel.
	Fluct int
	// Seed selects the fluctuation stream.
	Seed int64
	// LinkFIFO forces in-order delivery per (src, dst) link: a message
	// cannot arrive before an earlier-sent message on the same link.
	LinkFIFO bool
	// Override, when true, replaces every message's compile-time cost with
	// OverrideCost: the machine's real communication latency regardless of
	// what the scheduler assumed. Used to study robustness of the
	// communication-cost estimate (Section 5's "even when the estimation
	// of communication cost is far off the mark").
	Override     bool
	OverrideCost int
	// Grain bills each COMPUTE as Grain fused iterations of its node
	// (values <= 1 bill plain node latency). Grain-G program sets are in
	// chunk space, and the simulator executes them against the original
	// graph, so the fused latency enters here; a partial final chunk is
	// conservatively billed at the full grain.
	Grain int
}

// ProcStats reports one processor's activity.
type ProcStats struct {
	Finish int // cycle its last instruction completed
	Busy   int // cycles spent computing
	Wait   int // cycles stalled in RECV
	Sends  int
	Recvs  int
}

// Stats reports a whole run.
type Stats struct {
	Makespan int
	Messages int
	PerProc  []ProcStats
}

// Utilization returns total busy cycles / (makespan * processors).
func (s *Stats) Utilization() float64 {
	if s.Makespan == 0 || len(s.PerProc) == 0 {
		return 0
	}
	busy := 0
	for _, p := range s.PerProc {
		busy += p.Busy
	}
	return float64(busy) / float64(s.Makespan*len(s.PerProc))
}

// Run executes the programs and returns timing statistics. It fails on
// deadlock (a RECV whose message is never sent) with a diagnostic of the
// blocked processors, and refuses a malformed program set (see wire)
// without running it.
func Run(g *graph.Graph, progs []program.Program, cfg Config) (*Stats, error) {
	s, err := wire(g, progs)
	if err != nil {
		return nil, err
	}
	stats := &Stats{PerProc: make([]ProcStats, len(progs))}
	if err := s.run(cfg, stats); err != nil {
		return nil, err
	}
	return stats, nil
}

// errMalformed marks the program sets wire refuses.
var errMalformed = errors.New("machine: malformed program set")

// sim is a program set wired for the simulator, with the state of one
// run, which run resets so that trials reuse it.
//
// Wiring gives every SEND and RECV the slot of its message, one slot per
// distinct (node, iter, from, to), so a run keeps arrivals in flat
// slices indexed by slot and never hashes a message key. Duplicate SENDs
// of one message share its slot, so a later arrival overwrites an
// earlier one.
type sim struct {
	g     *graph.Graph
	progs []program.Program
	// slot holds, per instruction in program order (program p's from
	// start[p]), the message slot of a SEND or RECV. A RECV that no
	// instruction sends holds -1: it blocks, and the run deadlocks.
	slot  []int32
	start []int
	// link holds each slot's link, program.Check's numbering of the
	// (from, to) pairs that carry a message, for LinkFIFO.
	link []int32

	// arrival is each slot's arrival cycle, valid once sent is set.
	arrival []int
	sent    []bool
	// lastOnLink is each link's latest arrival so far, math.MinInt
	// before its first message.
	lastOnLink []int
	pc, clock  []int
}

// wire checks and wires progs for running on g. program.Check refuses
// the sets the simulator would index out of range with, before anything
// is allocated for their iterations. A SEND to its own processor is
// not refused: the simulator runs it like any other.
func wire(g *graph.Graph, progs []program.Program) (*sim, error) {
	lay, err := program.Check(g, progs, errMalformed)
	if err != nil {
		return nil, err
	}

	// Each instance (node, iter) heads, at iter*N + node, a list of the
	// messages carrying its value, linked through next.
	type message struct{ from, to, next int32 }
	msgs := make([]message, 0, lay.Sends)
	heads := plan.NewTable(g.N(), lay.MaxIter+1)
	find := func(node, iter, from, to int) int32 {
		for m := heads.Get(node, iter); m >= 0; m = int(msgs[m].next) {
			if int(msgs[m].from) == from && int(msgs[m].to) == to {
				return int32(m)
			}
		}
		return -1
	}
	// The slots overwrite lay.Link: a SEND's link is read first.
	s := &sim{g: g, progs: progs, slot: lay.Link, start: lay.Start, link: make([]int32, 0, lay.Sends)}
	// Every SEND is wired before any RECV.
	for p, pr := range progs {
		slot := s.slot[lay.Start[p]:lay.Start[p+1]]
		for i, in := range pr.Instrs {
			if in.Kind != program.OpSend {
				continue
			}
			m := find(in.Node, in.Iter, p, in.Peer)
			if m < 0 {
				m = int32(len(msgs))
				msgs = append(msgs, message{int32(p), int32(in.Peer), int32(heads.Get(in.Node, in.Iter))})
				heads.Set(in.Node, in.Iter, int(m))
				s.link = append(s.link, slot[i])
			}
			slot[i] = m
		}
	}
	for p, pr := range progs {
		slot := s.slot[lay.Start[p]:lay.Start[p+1]]
		for i, in := range pr.Instrs {
			if in.Kind == program.OpRecv {
				slot[i] = find(in.Node, in.Iter, in.Peer, p)
			}
		}
	}
	s.arrival, s.sent = make([]int, len(msgs)), make([]bool, len(msgs))
	s.lastOnLink = make([]int, len(lay.Links))
	s.pc, s.clock = make([]int, len(progs)), make([]int, len(progs))
	return s, nil
}

// run executes the wired programs under cfg into stats, whose PerProc
// has one entry per program. Processors take turns round-robin, each
// running until it finishes or blocks in a RECV whose message has not
// been sent.
func (s *sim) run(cfg Config, stats *Stats) error {
	if cfg.Fluct < 0 {
		return fmt.Errorf("machine: negative fluctuation %d", cfg.Fluct)
	}
	model := FluctModel{MM: cfg.Fluct, Seed: cfg.Seed}
	seeded := fnvWord(fnvOffset, cfg.Seed)
	clear(s.sent)
	for l := range s.lastOnLink {
		s.lastOnLink[l] = math.MinInt
	}
	clear(s.pc)
	clear(s.clock)
	clear(stats.PerProc)
	stats.Makespan, stats.Messages = 0, 0

	for {
		progress := false
		done := true
		for p, pr := range s.progs {
			slot := s.slot[s.start[p]:s.start[p+1]]
			ps := &stats.PerProc[p]
			pc, clock := s.pc[p], s.clock[p]
		proc:
			for ; pc < len(pr.Instrs); pc++ {
				in := &pr.Instrs[pc]
				switch in.Kind {
				case program.OpCompute:
					lat := s.g.Nodes[in.Node].Latency
					if cfg.Grain > 1 {
						lat *= cfg.Grain
					}
					clock += lat
					ps.Busy += lat
				case program.OpSend:
					cost := in.Cost
					if cfg.Override {
						cost = cfg.OverrideCost
					}
					arr := clock + cost + model.delay(seeded, in.Node, in.Iter, p, in.Peer)
					m := slot[pc]
					if cfg.LinkFIFO {
						l := s.link[m]
						arr = max(arr, s.lastOnLink[l])
						s.lastOnLink[l] = arr
					}
					s.arrival[m], s.sent[m] = arr, true
					ps.Sends++
					stats.Messages++
				case program.OpRecv:
					m := slot[pc]
					if m < 0 || !s.sent[m] {
						// Blocked: try again after other processors run.
						break proc
					}
					if arr := s.arrival[m]; arr > clock {
						ps.Wait += arr - clock
						clock = arr
					}
					ps.Recvs++
				}
				progress = true
			}
			s.pc[p], s.clock[p] = pc, clock
			if pc < len(pr.Instrs) {
				done = false
			}
		}
		if done {
			break
		}
		if !progress {
			return deadlockError(s.progs, s.pc)
		}
	}
	for p, clock := range s.clock {
		stats.PerProc[p].Finish = clock
		if clock > stats.Makespan {
			stats.Makespan = clock
		}
	}
	return nil
}

func deadlockError(progs []program.Program, pc []int) error {
	msg := "machine: deadlock:"
	for p := range progs {
		if pc[p] < len(progs[p].Instrs) {
			in := progs[p].Instrs[pc[p]]
			msg += fmt.Sprintf(" PE%d blocked at instr %d (%s node=%d iter=%d peer=%d);",
				p, pc[p], in.Kind, in.Node, in.Iter, in.Peer)
		}
	}
	return fmt.Errorf("%s", msg)
}
