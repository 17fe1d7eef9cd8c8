package progtest

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"mimdloop/internal/jsonwire"
	"mimdloop/internal/program"
)

// TestProgramJSONMatchesEncodingJSON: AppendJSON writes what
// encoding/json writes for the same programs, nil and empty lists
// included, and DecodeJSON reads it back to equal programs.
func TestProgramJSONMatchesEncodingJSON(t *testing.T) {
	bases, err := FuzzBases()
	if err != nil {
		t.Fatal(err)
	}
	built := bases[0]
	for name, progs := range map[string][]program.Program{
		"figure 7":     built,
		"idle program": append(append([]program.Program(nil), built...), program.Program{Proc: len(built)}),
		"empty instrs": {{Proc: 0, Instrs: []program.Instr{}}},
		"no programs":  {},
		"nil":          nil,
	} {
		want, err := json.Marshal(progs)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendJSON(nil, progs)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: AppendJSON\n got %.200s\nwant %.200s", name, got, want)
		}
		back, err := DecodeJSON(jsonwire.New(got), 5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(back, progs) {
			t.Fatalf("%s: decoded programs differ", name)
		}
	}
}

// TestDecodeJSONRangeChecks: every instruction field a simulator or
// runtime indexes by is checked, and so is each program's processor.
func TestDecodeJSONRangeChecks(t *testing.T) {
	const ok = `{"Kind":1,"Node":4,"Iter":0,"Peer":1,"Cost":2}`
	for name, instr := range map[string]string{
		"unknown kind":     `{"Kind":3,"Node":0,"Iter":0,"Peer":1,"Cost":0}`,
		"negative node":    `{"Kind":0,"Node":-1,"Iter":0,"Peer":0,"Cost":0}`,
		"node 5 of 5":      `{"Kind":0,"Node":5,"Iter":0,"Peer":0,"Cost":0}`,
		"negative iter":    `{"Kind":0,"Node":0,"Iter":-1,"Peer":0,"Cost":0}`,
		"negative cost":    `{"Kind":1,"Node":0,"Iter":0,"Peer":1,"Cost":-1}`,
		"negative peer":    `{"Kind":2,"Node":0,"Iter":0,"Peer":-1,"Cost":0}`,
		"peer 2 of 2":      `{"Kind":1,"Node":0,"Iter":0,"Peer":2,"Cost":0}`,
		"send to itself":   `{"Kind":1,"Node":0,"Iter":0,"Peer":0,"Cost":0}`,
		"recv from itself": `{"Kind":2,"Node":0,"Iter":0,"Peer":0,"Cost":0}`,
	} {
		doc := `[{"Proc":0,"Instrs":[` + ok + `,` + instr + `]},{"Proc":1,"Instrs":null}]`
		if _, err := DecodeJSON(jsonwire.New([]byte(doc)), 5); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	valid := `[{"Proc":0,"Instrs":[` + ok + `]},{"Proc":1,"Instrs":null}]`
	if _, err := DecodeJSON(jsonwire.New([]byte(valid)), 5); err != nil {
		t.Fatalf("valid programs rejected: %v", err)
	}
	swapped := strings.Replace(valid, `"Proc":1`, `"Proc":0`, 1)
	if _, err := DecodeJSON(jsonwire.New([]byte(swapped)), 5); err == nil {
		t.Error("program 1 claiming processor 0 accepted")
	}
}
