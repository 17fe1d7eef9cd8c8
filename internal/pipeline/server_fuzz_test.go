package pipeline

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"testing"
)

// fuzzRoutes are the POST routes whose bodies FuzzServeRequests sends.
var fuzzRoutes = []string{"/v1/schedule", "/v1/batch", "/v1/tune"}

// FuzzServeRequests posts arbitrary bodies to /v1/schedule, /v1/batch
// and /v1/tune on one in-process server. No body may panic a handler or
// draw a 500 reply: whatever a client sends is either served or refused
// with a 4xx naming the problem. The corpus starts from every request
// example in docs/API.md and the envelope and cap cases of the server
// tests, each sent to every route.
//
//	go test -run '^$' -fuzz FuzzServeRequests -fuzztime 20s -fuzzminimizetime 2s ./internal/pipeline
func FuzzServeRequests(f *testing.F) {
	doc, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		f.Fatal(err)
	}
	seeds := []string{
		fig7Source, "   ", "loop ???", `{"source": 12}`, `{"source":"x","nope":1}`,
		`{"source":"x"}{"source":"y"}`, `{"iterations":5}`, `{"source":"x","processors":-1}`,
		`{"source":"x","comm_cost":-1}`, `{"source":"x","iterations":1000000000}`,
		`{"source":"x","processors":1000000}`, `{"source":"x","comm_cost":2000000}`,
		`{"items": []}`, `{}`, `{"items": [], "nope": 1}`, `{"items": 12}`,
		`{"items": [{"source": "loop a(N=5) {\n A[i] = A[i-1] + U[i]\n}", "iterations": 100000000}, {"source": "loop b(N=5) {\n B[i] = B[i-1] + U[i]\n}"}]}`,
		`{"source": "x", "processors": [1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32], "comm_costs": [1,2,3,4,5]}`,
		`{"source": "x", "objective": "fastest"}`, `{"source": "x", "epsilon": -0.5}`,
	}
	for _, m := range regexp.MustCompile(`(?s)-d '(\{.*?\})'`).FindAllSubmatch(doc, -1) {
		seeds = append(seeds, string(m[1]))
	}
	for _, body := range seeds {
		for route := range fuzzRoutes {
			f.Add(uint8(route), []byte(body))
		}
	}
	srv := NewServer(New(Config{}))
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := fuzzRoutes[int(route)%len(fuzzRoutes)]
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code >= http.StatusInternalServerError {
			t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
		}
	})
}
