// Command perfbench is the repository benchmark. One invocation runs one
// workload against an in-process loopsched server, stacked the way
// `loopsched serve -store` stacks it, over real loopback HTTP, and prints
// its metrics as one JSON object on the last line of standard output:
//
//	go run . --workload cold_schedule --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (latency,
// throughput, set-up time, schedule quality, peak memory); with --trace 1
// a separate serial replay of the same seeded requests is traced layer
// by layer and the per-layer metrics are printed instead. NOTES.md
// explains the workloads and the metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The three workloads.
const (
	coldSchedule = "cold_schedule"
	zipfServe    = "zipf_serve"
	measuredTune = "measured_tune"
)

// stealLimit is the share of a timed run's CPU time (wall time x CPUs)
// the hypervisor may give other guests before the run is invalid: past
// it the run had less than one of its two CPUs, and its figures measure
// the host rather than the program. Below it the figures' windowed and
// trimmed statistics absorb the steal (NOTES.md).
const stealLimit = 0.50

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  int
	// dir is this run's working directory, holding its store
	// directories; it is removed when the run ends.
	dir string
	// out is where the traced run leaves its span file.
	out string
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+coldSchedule+", "+zipfServe+" or "+measuredTune)
	seed := fs.Int64("seed", 1, "workload seed: the same seed generates the same requests")
	seconds := fs.Int("seconds", 30, "measured seconds of the timed run")
	trace := fs.Int("trace", 0, "1 = traced serial replay reporting per-layer metrics, 0 = timed run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "perfbench: want --seconds >= 1, --trace 0|1 and no positional arguments")
		return 2
	}
	out := os.Getenv("CARGO_TARGET_DIR")
	if out == "" {
		out = ".bench_build"
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, dir: dir, out: out}

	host, err := json.Marshal(map[string]any{"host": hostStamp(), "workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(host))

	steal0 := stealSeconds()
	t0 := time.Now()
	var res *result
	switch {
	case *trace == 1:
		res, err = runTraced(cfg)
	case *name == coldSchedule:
		res, err = runCold(cfg)
	case *name == zipfServe:
		res, err = runZipf(cfg)
	case *name == measuredTune:
		res, err = runTune(cfg)
	default:
		err = fmt.Errorf("unknown workload %q", *name)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// Time the hypervisor gave other guests while this run wanted the
	// CPU: on a shared host it is the first suspect for a slow run.
	wall := time.Since(t0).Seconds()
	steal := stealSeconds() - steal0
	share := steal / (wall * float64(runtime.NumCPU()))
	fmt.Printf("host steal during the run: %.2f s of %.1f s x %d CPUs (%.1f%%)\n", steal, wall, runtime.NumCPU(), 100*share)
	if *trace == 0 && share > stealLimit {
		fmt.Printf("invalid run: host steal took %.1f%% of the CPU time, over the %.0f%% limit\n", 100*share, 100*stealLimit)
		res.Correct = false
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// hostStamp records what the numbers were measured on.
func hostStamp() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealSeconds reads the host's cumulative steal time from /proc/stat
// (0 where it is not reported).
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// subdir creates a fresh directory under the run's working directory.
func (c config) subdir(name string) (string, error) {
	d := filepath.Join(c.dir, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}
