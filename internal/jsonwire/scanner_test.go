package jsonwire

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// TestScannerValidatesLikeEncodingJSON: reading one value and the end of
// input accepts exactly the documents encoding/json calls valid.
func TestScannerValidatesLikeEncodingJSON(t *testing.T) {
	for _, doc := range []string{
		`0`, `-0`, `12`, `-7`, `1.5`, `1e9`, `-2.5E-3`, `01`, `1.`, `.5`, `+1`, `1e`, `--1`, `0x10`,
		`"a"`, `"é\n\"\\/"`, `"\x"`, `"\u12"`, `"tab	in"`, "\"\xff\"", `"unterminated`,
		`true`, `false`, `null`, `nul`, `truex`, `[]`, `[1,]`, `[1 2]`, `[,1]`, ` [ 1 , [ ] ] `,
		`{}`, `{"a":1,"b":[{"c":null}]}`, `{"a" 1}`, `{"a":1,}`, `{a:1}`, `{"a":1}}`, `{"a":1} {}`,
		"\ufeff{}", "", " ", `[[[[[[[[]]]]]]]]`,
	} {
		sc := New([]byte(doc))
		_, err := sc.Raw()
		if err == nil {
			err = sc.End()
		}
		if got, want := err == nil, json.Valid([]byte(doc)); got != want {
			t.Errorf("%q: scanner accepts %v (%v), encoding/json %v", doc, got, err, want)
		}
	}
}

// TestScannerValues: strings, integers and floats decode to the values
// encoding/json gives them, and Int refuses what an int field would.
func TestScannerValues(t *testing.T) {
	for _, doc := range []string{`"plain"`, `"esc\"aped\\"`, `" 😀"`, "\"bad\xffutf8\"", `"\ud800"`, `"<&>"`} {
		var want string
		if err := json.Unmarshal([]byte(doc), &want); err != nil {
			t.Fatal(err)
		}
		if got, err := New([]byte(doc)).String(); err != nil || got != want {
			t.Errorf("String(%s) = %q, %v; want %q", doc, got, err, want)
		}
	}
	for _, v := range []int{0, 7, -7, 42, 1 << 40, -(1 << 62)} {
		doc := strconv.Itoa(v)
		if got, err := New([]byte(doc)).Int(); err != nil || got != v {
			t.Errorf("Int(%s) = %d, %v", doc, got, err)
		}
	}
	for _, doc := range []string{`1.0`, `1e2`, `9223372036854775808`, `-9223372036854775809`, `"1"`, `null`} {
		var want int
		if json.Unmarshal([]byte(doc), &want) == nil && doc != `null` {
			t.Fatalf("%s: encoding/json takes it as an int", doc)
		}
		if _, err := New([]byte(doc)).Int(); err == nil {
			t.Errorf("Int(%s) accepted", doc)
		}
	}
	if f, err := New([]byte(`-2.5e-3`)).Float64(); err != nil || f != -2.5e-3 {
		t.Errorf("Float64 = %v, %v", f, err)
	}
	if _, err := New([]byte(`1e999`)).Float64(); err == nil {
		t.Error("Float64 accepted a number out of float64 range")
	}
}

// TestScannerKeys: known keys in any order and unknown keys pass;
// repeated known keys and case variants of them are refused.
func TestScannerKeys(t *testing.T) {
	keys := []string{"node", "iter"}
	for doc, ok := range map[string]bool{
		`{"node":1,"iter":2}`:              true,
		`{ "iter" : 2 , "node" : 1 }`:      true,
		`{"other":{"x":[1]},"node":1}`:     true,
		`{"node":1}`:                       true,
		`{"node":1,"node":2}`:              false,
		`{"Node":1}`:                       false,
		`{"iter":1,"ITER":2}`:              false,
		`{"node":"1"}`:                     false,
		`{"node":1,"other":[1,}`:           false,
		`{"node":1,"iter":2,"extra":true}`: true,
	} {
		vals := make([]int, 2)
		err := New([]byte(doc)).Ints(keys, vals)
		if (err == nil) != ok {
			t.Errorf("%s: err %v, want ok=%v", doc, err, ok)
		}
		if ok && err == nil && (vals[0] != 1 || (vals[1] != 2 && vals[1] != 0)) {
			t.Errorf("%s: vals %v", doc, vals)
		}
	}
}

// TestFlatLen counts the flat objects of the array that starts next.
func TestFlatLen(t *testing.T) {
	for doc, want := range map[string]int{
		` [{"a":1},{"a":2},{}] , "x"`: 3,
		`[]`:                          0,
		`null`:                        0,
		`{"a":[1]}`:                   0,
	} {
		if got := New([]byte(doc)).FlatLen(); got != want {
			t.Errorf("FlatLen(%s) = %d, want %d", doc, got, want)
		}
	}
}

// TestScannerDepth: skipped values may nest up to maxDepth containers,
// well inside encoding/json's own limit.
func TestScannerDepth(t *testing.T) {
	nest := func(n int) []byte {
		return []byte(strings.Repeat(`{"a":[`, n/2) + strings.Repeat(`]}`, n/2))
	}
	if _, err := New(nest(maxDepth)).Raw(); err != nil {
		t.Fatalf("%d levels rejected: %v", maxDepth, err)
	}
	if _, err := New(nest(maxDepth + 2)).Raw(); err == nil {
		t.Fatalf("%d levels accepted", maxDepth+2)
	}
}
