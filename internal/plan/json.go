package plan

import (
	"encoding/json"
	"fmt"
	"strconv"
	"unicode/utf8"

	"mimdloop/internal/graph"
	"mimdloop/internal/jsonwire"
)

// The schedule wire format embeds the graph, so a schedule file is
// self-contained and can be validated on load:
//
//	{"timing":{"CommCost":k,"CommFromStart":b},"processors":p,"grain":g,
//	 "nodes":[{"name":s,"latency":l},…],
//	 "edges":[{"from":u,"to":v,"distance":d,"cost":c},…],
//	 "placements":[{"node":v,"iter":i,"proc":q,"start":t},…]}
//
// with no whitespace. "grain" is omitted at 0, keeping pre-grain wire
// bytes identical, and an empty edge or placement list is null. The
// bytes are exactly what encoding/json made of the struct mirror this
// format was first defined by; AppendJSON writes them directly.

// MarshalJSON encodes the schedule with its graph into one buffer sized
// up front (memoized schedule bytes live as long as their plan, so they
// should not carry a growth margin).
func (s *Schedule) MarshalJSON() ([]byte, error) {
	return s.AppendJSON(make([]byte, 0, s.jsonSize())), nil
}

// jsonSize bounds the length of the schedule's wire encoding from above,
// charging every placement the widest value each of its fields holds —
// a few percent over the exact length.
func (s *Schedule) jsonSize() int {
	const (
		head      = len(`{"timing":{"CommCost":,"CommFromStart":false},"processors":,"grain":,"nodes":[],"edges":[],"placements":[]}`) + 3*20
		node      = len(`{"name":"","latency":},`) + 20
		edge      = len(`{"from":,"to":,"distance":,"cost":},`) + 4*20
		placement = len(`{"node":,"iter":,"proc":,"start":},`)
	)
	n := head + len(s.Graph.Nodes)*node + len(s.Graph.Edges)*edge
	for _, nd := range s.Graph.Nodes {
		n += 6 * len(nd.Name) // every byte escaped as \u00XX at worst
	}
	var wide Placement
	for _, p := range s.Placements {
		wide = Placement{max(wide.Node, p.Node), max(wide.Iter, p.Iter), max(wide.Proc, p.Proc), max(wide.Start, p.Start)}
	}
	return n + len(s.Placements)*(placement+jsonwire.IntLen(wide.Node)+jsonwire.IntLen(wide.Iter)+jsonwire.IntLen(wide.Proc)+jsonwire.IntLen(wide.Start))
}

// AppendJSON appends the schedule's wire encoding to dst.
func (s *Schedule) AppendJSON(dst []byte) []byte {
	g := s.Graph
	dst = append(dst, `{"timing":{"CommCost":`...)
	dst = jsonwire.AppendInt(dst, s.Timing.CommCost)
	dst = append(dst, `,"CommFromStart":`...)
	dst = strconv.AppendBool(dst, s.Timing.CommFromStart)
	dst = append(dst, `},"processors":`...)
	dst = jsonwire.AppendInt(dst, s.Processors)
	if s.Grain != 0 {
		dst = append(dst, `,"grain":`...)
		dst = jsonwire.AppendInt(dst, s.Grain)
	}
	dst = append(dst, `,"nodes":`...)
	dst = openList(dst, len(g.Nodes))
	for i, nd := range g.Nodes {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"name":`...)
		dst = appendName(dst, nd.Name)
		dst = append(dst, `,"latency":`...)
		dst = jsonwire.AppendInt(dst, nd.Latency)
		dst = append(dst, '}')
	}
	dst = closeList(dst, len(g.Nodes))
	dst = append(dst, `,"edges":`...)
	dst = openList(dst, len(g.Edges))
	for i, e := range g.Edges {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"from":`...)
		dst = jsonwire.AppendInt(dst, e.From)
		dst = append(dst, `,"to":`...)
		dst = jsonwire.AppendInt(dst, e.To)
		dst = append(dst, `,"distance":`...)
		dst = jsonwire.AppendInt(dst, e.Distance)
		dst = append(dst, `,"cost":`...)
		dst = jsonwire.AppendInt(dst, e.Cost)
		dst = append(dst, '}')
	}
	dst = closeList(dst, len(g.Edges))
	dst = append(dst, `,"placements":`...)
	dst = openList(dst, len(s.Placements))
	for i, p := range s.Placements {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"node":`...)
		dst = jsonwire.AppendInt(dst, p.Node)
		dst = append(dst, `,"iter":`...)
		dst = jsonwire.AppendInt(dst, p.Iter)
		dst = append(dst, `,"proc":`...)
		dst = jsonwire.AppendInt(dst, p.Proc)
		dst = append(dst, `,"start":`...)
		dst = jsonwire.AppendInt(dst, p.Start)
		dst = append(dst, '}')
	}
	dst = closeList(dst, len(s.Placements))
	return append(dst, '}')
}

// openList opens a list of n elements; an empty list is written null.
func openList(dst []byte, n int) []byte {
	if n == 0 {
		return append(dst, "null"...)
	}
	return append(dst, '[')
}

// closeList closes a list opened by openList.
func closeList(dst []byte, n int) []byte {
	if n == 0 {
		return dst
	}
	return append(dst, ']')
}

// appendName appends a node name as a JSON string. Printable ASCII that
// encoding/json leaves alone is copied; anything else (quotes,
// backslashes, <, >, &, control characters, non-ASCII, invalid UTF-8)
// goes through encoding/json itself, so every name renders exactly as it
// always has.
func appendName(dst []byte, name string) []byte {
	for i := 0; i < len(name); i++ {
		if c := name[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(name) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, name...)
	return append(dst, '"')
}

var (
	scheduleKeys  = []string{"timing", "processors", "grain", "nodes", "edges", "placements"}
	timingKeys    = []string{"CommCost", "CommFromStart"}
	nodeKeys      = []string{"name", "latency"}
	edgeKeys      = []string{"from", "to", "distance", "cost"}
	placementKeys = []string{"node", "iter", "proc", "start"}
)

// UnmarshalJSON decodes and structurally validates a schedule (see
// DecodeJSON).
func (s *Schedule) UnmarshalJSON(data []byte) error {
	sc := jsonwire.New(data)
	if err := s.DecodeJSON(sc); err != nil {
		return err
	}
	if err := sc.End(); err != nil {
		return fmt.Errorf("plan: decode schedule: %w", err)
	}
	return nil
}

// DecodeJSON reads one schedule in the wire format from sc, in one pass,
// accepting any key order. Graph construction re-checks the node and
// edge invariants, the grain and processor count must be non-negative,
// a grain above 1 must chunk the graph, and every
// placement must stay within the bounds Validate applies: a node of the
// graph, a non-negative iteration, start and processor, and a processor
// below the declared count when one is declared. The rest of Validate
// (overlaps, dependences, completeness) is left to the caller, which
// knows whether the schedule should be complete.
func (s *Schedule) DecodeJSON(sc *jsonwire.Scanner) error {
	var (
		timing           Timing
		procs, grain     int
		nodes            []graph.Node
		edges            []graph.Edge
		places           []Placement
		maxNode, maxProc = -1, -1
	)
	err := sc.Object(scheduleKeys, func(key string) (err error) {
		switch key {
		case "timing":
			err = sc.Object(timingKeys, func(key string) (err error) {
				if key == "CommCost" {
					timing.CommCost, err = sc.Int()
				} else {
					timing.CommFromStart, err = sc.Bool()
				}
				return err
			})
		case "processors":
			procs, err = sc.Int()
		case "grain":
			grain, err = sc.Int()
		case "nodes":
			_, err = sc.Array(func() error {
				nd := graph.Node{ID: len(nodes)}
				err := sc.Object(nodeKeys, func(key string) (err error) {
					if key == "name" {
						nd.Name, err = sc.String()
					} else {
						nd.Latency, err = sc.Int()
					}
					return err
				})
				nodes = append(nodes, nd)
				return err
			})
		case "edges":
			_, err = sc.Array(func() error {
				var v [4]int
				err := sc.Ints(edgeKeys, v[:])
				edges = append(edges, graph.Edge{From: v[0], To: v[1], Distance: v[2], Cost: v[3]})
				return err
			})
		case "placements":
			if n := sc.FlatLen(); n > 0 {
				places = make([]Placement, 0, n)
			}
			_, err = sc.Array(func() error {
				var v [4]int
				if err := sc.Ints(placementKeys, v[:]); err != nil {
					return err
				}
				p := Placement{Node: v[0], Iter: v[1], Proc: v[2], Start: v[3]}
				if p.Node < 0 || p.Iter < 0 || p.Start < 0 || p.Proc < 0 {
					return fmt.Errorf("placement %d (node %d, iter %d, proc %d, start %d) has a negative field",
						len(places), p.Node, p.Iter, p.Proc, p.Start)
				}
				maxNode, maxProc = max(maxNode, p.Node), max(maxProc, p.Proc)
				places = append(places, p)
				return nil
			})
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("plan: decode schedule: %w", err)
	}
	g, err := graph.New(nodes, edges)
	if err != nil {
		return fmt.Errorf("plan: decode schedule graph: %w", err)
	}
	if grain < 0 || procs < 0 {
		return fmt.Errorf("plan: decode schedule: negative grain %d or processor count %d", grain, procs)
	}
	if grain > 1 {
		// A grain the schedule was built under always chunks; checking at
		// decode time keeps EffectiveGraph panic-free on tampered records.
		if _, err := graph.Chunked(g, grain); err != nil {
			return fmt.Errorf("plan: decode schedule: %w", err)
		}
	}
	// The chunk graph keeps the node set, so one bound serves every grain.
	if maxNode >= g.N() || procs > 0 && maxProc >= procs {
		for i, p := range places {
			if p.Node >= g.N() {
				return fmt.Errorf("plan: decode schedule: placement %d references unknown node %d", i, p.Node)
			}
			if procs > 0 && p.Proc >= procs {
				return fmt.Errorf("plan: decode schedule: placement %d on processor %d, schedule declares %d", i, p.Proc, procs)
			}
		}
	}
	s.Graph = g
	s.Timing = timing
	s.Processors = procs
	s.Grain = grain
	s.Placements = places
	return nil
}
