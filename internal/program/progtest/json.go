package progtest

import (
	"fmt"

	"mimdloop/internal/jsonwire"
	"mimdloop/internal/program"
)

// The program wire format is what encoding/json makes of
// []program.Program:
//
//	[{"Proc":p,"Instrs":[{"Kind":k,"Node":v,"Iter":i,"Peer":q,"Cost":c},…]},…]
//
// with no whitespace; a nil list (of programs or of one processor's
// instructions) is null and an empty non-nil one is []. Plan records
// carried it up to version 4; they now derive programs from the
// schedule, so only tests read and write it: the simulator and runtime
// fuzzers decode their inputs with DecodeJSON, and the lowering digest
// hashes AppendJSON's bytes.

// AppendJSON appends the wire encoding of progs to dst.
func AppendJSON(dst []byte, progs []program.Program) []byte {
	if progs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, pr := range progs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"Proc":`...)
		dst = jsonwire.AppendInt(dst, pr.Proc)
		dst = append(dst, `,"Instrs":`...)
		if pr.Instrs == nil {
			dst = append(dst, "null}"...)
			continue
		}
		dst = append(dst, '[')
		for j, in := range pr.Instrs {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"Kind":`...)
			dst = jsonwire.AppendInt(dst, int(in.Kind))
			dst = append(dst, `,"Node":`...)
			dst = jsonwire.AppendInt(dst, in.Node)
			dst = append(dst, `,"Iter":`...)
			dst = jsonwire.AppendInt(dst, in.Iter)
			dst = append(dst, `,"Peer":`...)
			dst = jsonwire.AppendInt(dst, in.Peer)
			dst = append(dst, `,"Cost":`...)
			dst = jsonwire.AppendInt(dst, in.Cost)
			dst = append(dst, '}')
		}
		dst = append(dst, "]}"...)
	}
	return append(dst, ']')
}

var (
	programKeys = []string{"Proc", "Instrs"}
	instrKeys   = []string{"Kind", "Node", "Iter", "Peer", "Cost"}
)

// DecodeJSON reads a program list in the wire format from sc, in one
// pass, checking every program and instruction as it is read, so a
// decoded list can run on the machine simulator and the goroutine
// runtime without indexing out of range:
//
//   - program i is processor i's (Proc == i);
//   - kind is compute, send or recv;
//   - node is in [0, nodes), iteration and cost are >= 0;
//   - peer is in [0, len(programs)), and a send or recv never names its
//     own processor (lowering only emits cross-processor messages).
func DecodeJSON(sc *jsonwire.Scanner, nodes int) ([]program.Program, error) {
	var progs []program.Program
	maxPeer := -1
	null, err := sc.Array(func() error {
		pr := program.Program{Proc: len(progs)}
		proc := 0
		err := sc.Object(programKeys, func(key string) (err error) {
			if key == "Proc" {
				proc, err = sc.Int()
				return err
			}
			if n := sc.FlatLen(); n > 0 {
				pr.Instrs = make([]program.Instr, 0, n)
			}
			null, err := sc.Array(func() error {
				var v [5]int
				if err := sc.Ints(instrKeys, v[:]); err != nil {
					return err
				}
				kind := v[0]
				in := program.Instr{Kind: program.OpKind(kind), Node: v[1], Iter: v[2], Peer: v[3], Cost: v[4]}
				if err := checkInstr(in, kind, pr.Proc, nodes); err != nil {
					return fmt.Errorf("program %d instruction %d: %w", pr.Proc, len(pr.Instrs), err)
				}
				maxPeer = max(maxPeer, in.Peer)
				pr.Instrs = append(pr.Instrs, in)
				return nil
			})
			if !null && pr.Instrs == nil {
				pr.Instrs = []program.Instr{}
			}
			return err
		})
		if err != nil {
			return err
		}
		if proc != pr.Proc {
			return fmt.Errorf("program %d claims processor %d", pr.Proc, proc)
		}
		progs = append(progs, pr)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("progtest: decode programs: %w", err)
	}
	if maxPeer >= len(progs) {
		return nil, fmt.Errorf("progtest: decode programs: peer %d of %d processors", maxPeer, len(progs))
	}
	if !null && progs == nil {
		progs = []program.Program{}
	}
	return progs, nil
}

// checkInstr applies DecodeJSON's per-instruction bounds.
func checkInstr(in program.Instr, kind, proc, nodes int) error {
	switch {
	case kind < int(program.OpCompute) || kind > int(program.OpRecv):
		return fmt.Errorf("unknown kind %d", kind)
	case in.Node < 0 || in.Node >= nodes:
		return fmt.Errorf("node %d of %d", in.Node, nodes)
	case in.Iter < 0:
		return fmt.Errorf("negative iteration %d", in.Iter)
	case in.Cost < 0:
		return fmt.Errorf("negative cost %d", in.Cost)
	case in.Peer < 0:
		return fmt.Errorf("negative peer %d", in.Peer)
	case in.Kind != program.OpCompute && in.Peer == proc:
		return fmt.Errorf("%s with its own processor", in.Kind)
	}
	return nil
}
