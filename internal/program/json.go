package program

import (
	"fmt"

	"mimdloop/internal/jsonwire"
)

// The program wire format is what encoding/json makes of []Program:
//
//	[{"Proc":p,"Instrs":[{"Kind":k,"Node":v,"Iter":i,"Peer":q,"Cost":c},…]},…]
//
// with no whitespace; a nil list (of programs or of one processor's
// instructions) is null and an empty non-nil one is []. AppendJSON writes
// those bytes directly and DecodeJSON reads them back.

// AppendJSON appends the wire encoding of progs to dst.
func AppendJSON(dst []byte, progs []Program) []byte {
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

// JSONSize bounds the length of AppendJSON's output from above, charging
// every instruction the widest value each of its fields holds — a few
// percent over the exact length.
func JSONSize(progs []Program) int {
	const (
		program = len(`{"Proc":,"Instrs":null},`) + 20
		instr   = len(`{"Kind":0,"Node":,"Iter":,"Peer":,"Cost":},`)
	)
	var wide Instr
	n, instrs := 2+len(progs)*program, 0
	for _, pr := range progs {
		instrs += len(pr.Instrs)
		for _, in := range pr.Instrs {
			wide = Instr{Node: max(wide.Node, in.Node), Iter: max(wide.Iter, in.Iter), Peer: max(wide.Peer, in.Peer), Cost: max(wide.Cost, in.Cost)}
		}
	}
	return n + instrs*(instr+jsonwire.IntLen(wide.Node)+jsonwire.IntLen(wide.Iter)+jsonwire.IntLen(wide.Peer)+jsonwire.IntLen(wide.Cost))
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
func DecodeJSON(sc *jsonwire.Scanner, nodes int) ([]Program, error) {
	var progs []Program
	maxPeer := -1
	null, err := sc.Array(func() error {
		pr := Program{Proc: len(progs)}
		proc := 0
		err := sc.Object(programKeys, func(key string) (err error) {
			if key == "Proc" {
				proc, err = sc.Int()
				return err
			}
			if n := sc.FlatLen(); n > 0 {
				pr.Instrs = make([]Instr, 0, n)
			}
			null, err := sc.Array(func() error {
				var v [5]int
				if err := sc.Ints(instrKeys, v[:]); err != nil {
					return err
				}
				kind := v[0]
				in := Instr{Kind: OpKind(kind), Node: v[1], Iter: v[2], Peer: v[3], Cost: v[4]}
				if err := checkInstr(in, kind, pr.Proc, nodes); err != nil {
					return fmt.Errorf("program %d instruction %d: %w", pr.Proc, len(pr.Instrs), err)
				}
				maxPeer = max(maxPeer, in.Peer)
				pr.Instrs = append(pr.Instrs, in)
				return nil
			})
			if !null && pr.Instrs == nil {
				pr.Instrs = []Instr{}
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
		return nil, fmt.Errorf("program: decode programs: %w", err)
	}
	if maxPeer >= len(progs) {
		return nil, fmt.Errorf("program: decode programs: peer %d of %d processors", maxPeer, len(progs))
	}
	if !null && progs == nil {
		progs = []Program{}
	}
	return progs, nil
}

// checkInstr applies DecodeJSON's per-instruction bounds.
func checkInstr(in Instr, kind, proc, nodes int) error {
	switch {
	case kind < int(OpCompute) || kind > int(OpRecv):
		return fmt.Errorf("unknown kind %d", kind)
	case in.Node < 0 || in.Node >= nodes:
		return fmt.Errorf("node %d of %d", in.Node, nodes)
	case in.Iter < 0:
		return fmt.Errorf("negative iteration %d", in.Iter)
	case in.Cost < 0:
		return fmt.Errorf("negative cost %d", in.Cost)
	case in.Peer < 0:
		return fmt.Errorf("negative peer %d", in.Peer)
	case in.Kind != OpCompute && in.Peer == proc:
		return fmt.Errorf("%s with its own processor", in.Kind)
	}
	return nil
}
