package program

import (
	"errors"
	"reflect"
	"testing"
)

// TestCheckNumbersLinks pins the layout both runtimes wire from: one link
// per (from, to) pair that carries a SEND, numbered by sender and then by
// each sender's first SEND to the peer, with each SEND's link at its
// instruction number and zero elsewhere.
func TestCheckNumbersLinks(t *testing.T) {
	g := figure7(t)
	send := func(iter, peer int) Instr { return Instr{Kind: OpSend, Iter: iter, Peer: peer} }
	progs := []Program{
		{Proc: 0, Instrs: []Instr{{Kind: OpCompute}, send(0, 2), send(0, 1), send(1, 2)}},
		{Proc: 1, Instrs: []Instr{{Kind: OpRecv, Peer: 0}, send(3, 0)}},
		{Proc: 2},
	}
	lay, err := Check(g, progs, errors.New("malformed"))
	if err != nil {
		t.Fatal(err)
	}
	want := Layout{
		Start: []int{0, 4, 6, 6}, Sends: 4, MaxIter: 3,
		Link:  []int32{0, 0, 1, 0, 0, 2},
		Links: []Link{{From: 0, To: 2, Sends: 2}, {From: 0, To: 1, Sends: 1}, {From: 1, To: 0, Sends: 1}},
	}
	if !reflect.DeepEqual(lay, want) {
		t.Fatalf("layout %+v, want %+v", lay, want)
	}

	malformed := errors.New("malformed")
	progs[1].Instrs[0].Peer = 3
	if _, err := Check(g, progs, malformed); !errors.Is(err, malformed) {
		t.Fatalf("a RECV from processor 3 of 3: error %v, want the caller's sentinel", err)
	}
}
