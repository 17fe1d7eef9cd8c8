package plan

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestScheduleJSONRoundTrip(t *testing.T) {
	g := chainGraph(t)
	s := Sequential(g, Timing{CommCost: 2, CommFromStart: true}, 3)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Schedule
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Timing != s.Timing || back.Processors != s.Processors {
		t.Fatalf("metadata changed: %+v vs %+v", back.Timing, s.Timing)
	}
	if !reflect.DeepEqual(back.Placements, s.Placements) {
		t.Fatal("placements changed in round trip")
	}
	if back.Graph.N() != g.N() || len(back.Graph.Edges) != len(g.Edges) {
		t.Fatal("graph changed in round trip")
	}
	if err := back.Validate(true); err != nil {
		t.Fatalf("round-tripped schedule invalid: %v", err)
	}
}

func TestScheduleJSONRejectsCorruptGraph(t *testing.T) {
	g := chainGraph(t)
	s := Sequential(g, Timing{}, 1)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := strings.Replace(string(data), `"latency":2`, `"latency":0`, 1)
	var back Schedule
	if err := json.Unmarshal([]byte(corrupt), &back); err == nil {
		t.Fatal("zero-latency graph accepted")
	}
	if err := json.Unmarshal([]byte("{"), &back); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

// TestScheduleDecodeBoundsPlacements: decoding refuses placements
// outside the bounds Validate applies, so accessors that index the graph
// or the processors by a decoded placement cannot go out of range.
func TestScheduleDecodeBoundsPlacements(t *testing.T) {
	s := Sequential(chainGraph(t), Timing{CommCost: 1}, 2)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	first := `{"node":0,"iter":0,"proc":0,"start":0}`
	if !strings.Contains(string(data), first) {
		t.Fatalf("no first placement in %s", data)
	}
	for name, bad := range map[string]string{
		"node 2 of 2":     `{"node":2,"iter":0,"proc":0,"start":0}`,
		"negative node":   `{"node":-1,"iter":0,"proc":0,"start":0}`,
		"negative iter":   `{"node":0,"iter":-1,"proc":0,"start":0}`,
		"negative proc":   `{"node":0,"iter":0,"proc":-1,"start":0}`,
		"negative start":  `{"node":0,"iter":0,"proc":0,"start":-1}`,
		"proc 1 of 1":     `{"node":0,"iter":0,"proc":1,"start":0}`,
		"fractional iter": `{"node":0,"iter":0.5,"proc":0,"start":0}`,
	} {
		var back Schedule
		if err := json.Unmarshal([]byte(strings.Replace(string(data), first, bad, 1)), &back); err == nil {
			t.Errorf("%s: schedule decoded", name)
		}
	}
	// ByProc sizes its result by the processor count.
	var back Schedule
	if err := json.Unmarshal([]byte(strings.Replace(string(data), `"processors":1`, `"processors":-1`, 1)), &back); err == nil {
		t.Error("negative processor count decoded")
	}
}

// TestScheduleDecodeLayout: any key order and whitespace decode to the
// same schedule, which renders back to the canonical bytes.
func TestScheduleDecodeLayout(t *testing.T) {
	s := Sequential(chainGraph(t), Timing{CommCost: 2, CommFromStart: true}, 3)
	data, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	sorted, err := json.MarshalIndent(fields, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back Schedule
	if err := back.UnmarshalJSON(sorted); err != nil {
		t.Fatal(err)
	}
	again, err := back.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("re-rendered schedule differs:\n got %s\nwant %s", again, data)
	}
}
