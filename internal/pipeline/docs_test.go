package pipeline

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"mimdloop/internal/loadgen"
)

// TestAPIDocCoversRoutes pins docs/API.md to the server: every route the
// server registers must appear in the doc (as "METHOD /path"), and every
// status code the handlers emit must be discussed. Adding an endpoint
// without documenting it fails here.
func TestAPIDocCoversRoutes(t *testing.T) {
	data, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatalf("docs/API.md must exist and document the HTTP API: %v", err)
	}
	doc := string(data)

	for _, r := range NewServer(New(Config{})).Routes() {
		if !strings.Contains(doc, r.Method+" "+r.Path) {
			t.Errorf("docs/API.md does not document %s %s", r.Method, r.Path)
		}
	}

	// The codes the handlers can produce (see writeJSON call sites).
	for _, code := range []int{400, 404, 405, 409, 413, 422, 501} {
		if !strings.Contains(doc, fmt.Sprintf("%d", code)) {
			t.Errorf("docs/API.md does not mention status %d", code)
		}
	}

	// The caps table must track the constants.
	for name, fragment := range map[string]string{
		"maxBatchItems":         fmt.Sprintf("%d", maxBatchItems),
		"maxTunePoints":         fmt.Sprintf("%d", maxTunePoints),
		"maxGraphNodes":         fmt.Sprintf("%d", maxGraphNodes),
		"maxEvalTrials":         fmt.Sprintf("%d", maxEvalTrials),
		"maxTuneTrialCells":     fmt.Sprintf("%d", maxTuneTrialCells),
		"maxGortEvalTrials":     fmt.Sprintf("trials ≤ %d", maxGortEvalTrials),
		"maxGortTuneTrialCells": fmt.Sprintf("trials ≤ %d", maxGortTuneTrialCells),
		"maxGrain":              fmt.Sprintf("0 … %d", maxGrain),
	} {
		if !strings.Contains(doc, fragment) {
			t.Errorf("docs/API.md does not mention %s (fragment %q)", name, fragment)
		}
	}

	// The evaluator surface: the tune eval block, the execution-backend
	// and spread-objective selectors, the schedule simulate query, every
	// JSON field of the measured-stats block, and the evaluator counters
	// in stats.
	for _, fragment := range []string{
		"`eval`", `"mode": "measured"`, "?simulate=1", "`trials`", "`fluct`", "`seed`",
		"`backend`", "`objective`", `"backend": "gort"`, "gort", "`worst`", "`p95`",
		`"sp_min"`, `"sp_mean"`, `"sp_p95"`, `"sp_max"`,
		`"makespan_min"`, `"makespan_max"`, `"makespan_mean"`, `"makespan_p95"`, `"utilization"`,
		`"evals"`, `"simulated"`, `"measured"`, `"evaluator"`, `"trials"`,
	} {
		if !strings.Contains(doc, fragment) {
			t.Errorf("docs/API.md does not document the evaluator surface fragment %s", fragment)
		}
	}

	// The grain axis: the schedule and tune request fields, the grid
	// widening, the per-cell grain echo, the serial fallback, and the
	// record-version break.
	for _, fragment := range []string{
		"`grain`", "`grains`", "`serial_threshold`",
		"The grain axis", `"grain"`, `"serial_fallback": true`,
		"version-4 plan record", "-table 1ad",
	} {
		if !strings.Contains(doc, fragment) {
			t.Errorf("docs/API.md does not document the grain fragment %s", fragment)
		}
	}

	// The stats reference must document the storage-layer block: every
	// JSON field StoreStats exposes, and each built-in tier kind.
	for _, fragment := range []string{
		`"store"`, `"promotes"`, `"tiers"`, `"evictions"`, `"puts"`, `"errors"`,
		`"memory"`, `"disk"`, `"tiered"`,
	} {
		if !strings.Contains(doc, fragment) {
			t.Errorf("docs/API.md does not document the store stats field %s", fragment)
		}
	}

	// The cluster surface: the serve flags, the record-fetch query, the
	// loop-prevention headers, and every JSON field of the cluster stats
	// block (plus the peer tier kind).
	for _, fragment := range []string{
		"-peers", "-self", "-vnodes", "?key=", "## Cluster mode",
		ForwardedHeader, PeerFetchHeader,
		`"cluster"`, `"self"`, `"peers"`, `"virtual_nodes"`,
		`"fills"`, `"fill_misses"`, `"fill_errors"`,
		`"forwards"`, `"forward_errors"`, `"breaker_skips"`, `"breaker_open"`,
		`"peer"`,
	} {
		if !strings.Contains(doc, fragment) {
			t.Errorf("docs/API.md does not document the cluster fragment %s", fragment)
		}
	}

	// The serving fast-lane and trajectory surface: the measured_by
	// reply field, the slots configuration, the bench subcommand, and
	// every section of the BENCH_*.json schema (internal/loadgen pins
	// the schema itself with a golden fixture; this pins the reference).
	// The schema heading must carry the current loadgen.Version, so a
	// version bump fails here until the doc notes the break.
	for _, fragment := range []string{
		"`measured_by`", "-slots", "loopsched bench", loadgen.Format,
		fmt.Sprintf("version %d", loadgen.Version),
		`"cold_schedule"`, `"cache_hit"`, `"tune_sim"`, `"tune_gort"`,
		`"tune_csim"`, `"tune_grain"`, `"batch"`, `"http_load"`, `"p50_ns"`, `"p95_ns"`, `"p99_ns"`,
		`"req_per_sec"`, `"loops_per_sec"`, "-against",
	} {
		if !strings.Contains(doc, fragment) {
			t.Errorf("docs/API.md does not document the bench/fast-lane fragment %s", fragment)
		}
	}

	// The streaming surface: the reply-splitting section with its
	// threshold and chunked semantics, the raw record fetch, the stats
	// counters, and the trajectory's stream phase.
	for _, fragment := range []string{
		"### Streaming replies", "StreamThreshold", "chunked transfer",
		`"streamed"`, `"stream_bytes"`,
		`"stream"`, `"reply_bytes"`, `"first_byte"`, `"full_body"`,
	} {
		if !strings.Contains(doc, fragment) {
			t.Errorf("docs/API.md does not document the streaming fragment %s", fragment)
		}
	}

	// The calibration surface: the csim backend selector, the calibrate
	// and serve/tune flags, the profile file, and every JSON field of
	// the stats "calib" block (CalibStats plus the nested cost model).
	for _, fragment := range []string{
		"## Cost-model calibration", `"backend": "csim"`, "`csim`",
		"loopsched calibrate", "-calib", "-calibrate-every",
		"calib.profile.json", "quarantine",
		`"calib"`, `"present"`, `"age_seconds"`, `"samples"`,
		`"rmse_ns"`, `"fit_error"`, `"refreshes"`, `"model"`,
		`"compute_ns_per_cycle"`, `"comm_ns_per_message"`,
		`"iter_overhead_ns"`, `"seq_ns_per_cycle"`,
	} {
		if !strings.Contains(doc, fragment) {
			t.Errorf("docs/API.md does not document the calibration fragment %s", fragment)
		}
	}
}

// TestArchitectureDocCoversFastLane pins the "Serving fast lane" section
// of docs/ARCHITECTURE.md to the mechanisms it documents: the per-plan
// pre-rendered hit body and its invalidation, the pooled encoder, and
// the tests and trajectory files that guard them.
func TestArchitectureDocCoversFastLane(t *testing.T) {
	data, err := os.ReadFile("../../docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatalf("docs/ARCHITECTURE.md must exist: %v", err)
	}
	doc := string(data)
	for _, fragment := range []string{
		"## Serving fast lane", "Pre-rendered hit bodies", "HitResponseBody",
		"measured-annotation generation", "sync.Pool",
		"TestScheduleCacheHitAllocs", "AllocsPerRun", "BenchmarkServeCacheHit",
		"BENCH_", "loadgen", "loopsched bench",
	} {
		if !strings.Contains(doc, fragment) {
			t.Errorf("docs/ARCHITECTURE.md does not cover the fast-lane fragment %q", fragment)
		}
	}
}

// TestArchitectureDocCoversStreaming pins the streaming-lane extension
// of the fast-lane section: the threshold and envelope split, the
// chunked/first-byte semantics, the raw record read and write sides,
// the mid-stream measurement story, and the tests and benchmark that
// guard the lane.
func TestArchitectureDocCoversStreaming(t *testing.T) {
	data, err := os.ReadFile("../../docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatalf("docs/ARCHITECTURE.md must exist: %v", err)
	}
	doc := string(data)
	for _, fragment := range []string{
		"streaming lane", "StreamThreshold", "chunked",
		"time-to-first-byte", `"schedule":`,
		"OpenRecord", "RecordSink", "PutRecord", "io.Copy",
		"TestStreamedReplyByteIdentical", "TestStreamedReplyAllocBytes",
		"TestStreamedReplyMidMeasurementRace", "BenchmarkServeNearCapStream",
	} {
		if !strings.Contains(doc, fragment) {
			t.Errorf("docs/ARCHITECTURE.md does not cover the streaming fragment %q", fragment)
		}
	}
}

// TestArchitectureDocCoversCluster pins the "Cluster mode" section of
// docs/ARCHITECTURE.md to the design it documents: the consistent-hash
// ring (with diagram), the PeerStore tier and its placement, the
// cluster-wide singleflight with its loop-prevention headers, the
// degrade-to-local failure story, and the clustertest harness.
func TestArchitectureDocCoversCluster(t *testing.T) {
	data, err := os.ReadFile("../../docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatalf("docs/ARCHITECTURE.md must exist: %v", err)
	}
	doc := string(data)
	for _, fragment := range []string{
		"## Cluster mode", "Consistent-hash ownership", "virtual",
		"next point clockwise = owner", // the ring diagram
		"PeerStore", "Tiered(mem, Tiered(peer, disk))",
		"singleflight", ForwardedHeader, PeerFetchHeader,
		"circuit breaker", "N independent nodes",
		"ScheduleForwarder", "clustertest", "httptest",
		"race detector",
	} {
		if !strings.Contains(doc, fragment) {
			t.Errorf("docs/ARCHITECTURE.md does not cover the cluster fragment %q", fragment)
		}
	}
}

// TestArchitectureDocCoversGranularity pins the "Granularity" section
// of docs/ARCHITECTURE.md to the design it documents: the chunk-graph
// fold and its infeasibility rule, the sticky chunk placement, the
// chunked runtime, the legacy-key mirror and record-version break, the
// serial fallback, and the adaptive acceptance experiment.
func TestArchitectureDocCoversGranularity(t *testing.T) {
	data, err := os.ReadFile("../../docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatalf("docs/ARCHITECTURE.md must exist: %v", err)
	}
	doc := string(data)
	for _, fragment := range []string{
		"## Granularity", "graph.Chunked", "infeasible",
		"chunkLocality", "sticky", "TestChunkLocalityStickyPlacement",
		"mimdrt.RunChunked", "chunk boundary",
		"legacyKeyOptions", "|grainG", "version 4",
		"TestGrainStoreReplayZeroRecomputes",
		"SerialThreshold", "SerialFallback",
		"Table1Adaptive", "winner's curse", "TestTable1AdaptiveAcceptance",
	} {
		if !strings.Contains(doc, fragment) {
			t.Errorf("docs/ARCHITECTURE.md does not cover the granularity fragment %q", fragment)
		}
	}
}

// TestArchitectureDocCoversCalibration pins the "Cost-model calibration"
// section of docs/ARCHITECTURE.md to the design it documents: the probe
// fit with its separate sequential coefficient, the csim backend and its
// pass-through degradation, the profile codec with atomic persistence
// and quarantine, the Manager's atomic swap and background refresh, the
// Calibration seam, and the regret-based acceptance experiment.
func TestArchitectureDocCoversCalibration(t *testing.T) {
	data, err := os.ReadFile("../../docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatalf("docs/ARCHITECTURE.md must exist: %v", err)
	}
	doc := string(data)
	for _, fragment := range []string{
		"## Cost-model calibration", "internal/calib", "exec.CostModel",
		"normal equations", "seq_ns_per_cycle", "fitted separately",
		`exec.Calibrated ("csim")`, "byte-identically",
		"calib.profile.json", "quarantine", "atomic",
		"ResetSequentialBaselines", "calib.Manager", "atomic.Pointer",
		"-calibrate-every", "pipeline.Calibration",
		"Table1Calibrated", "regret", "TestTable1CalibratedAcceptance",
	} {
		if !strings.Contains(doc, fragment) {
			t.Errorf("docs/ARCHITECTURE.md does not cover the calibration fragment %q", fragment)
		}
	}
}

// TestArchitectureDocCoversPlanWirePath pins the "Plan wire path"
// section of docs/ARCHITECTURE.md to the design it documents: direct
// appenders and the memoized schedule bytes, the envelope split behind
// all three reply lanes, the strict single-pass decode with its range
// checks, disk I/O outside the store lock, and the tests and
// benchmarks that hold each in place.
func TestArchitectureDocCoversPlanWirePath(t *testing.T) {
	data, err := os.ReadFile("../../docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatalf("docs/ARCHITECTURE.md must exist: %v", err)
	}
	doc := string(data)
	for _, fragment := range []string{
		"## Plan wire path", "Encode once, copy after", "plan.Schedule.AppendJSON",
		"program.AppendJSON", "One envelope split for all three reply lanes",
		"splitScheduleReply", "re-compacts", "Single-pass decode with range checks",
		"jsonwire.Scanner", "program.DecodeJSON", "node 99", "I/O outside the disk lock",
		"fsync", "TestPlanWireMatchesReference", "codec_ref_test.go", "FuzzDecodePlan",
		"TestDiskStoreConcurrentAccess", "BenchmarkEncodePlan", "BenchmarkDecodePlan",
		"BenchmarkServeCold", "TestPlanCodecAllocs",
	} {
		if !strings.Contains(doc, fragment) {
			t.Errorf("docs/ARCHITECTURE.md does not cover the plan wire path fragment %q", fragment)
		}
	}
	if strings.Contains(doc, "only sees memory misses") {
		t.Error("docs/ARCHITECTURE.md still justifies the disk lock by the tier only seeing memory misses")
	}
}
