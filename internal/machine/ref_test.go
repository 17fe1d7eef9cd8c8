package machine

import (
	"fmt"
	"hash/fnv"

	"mimdloop/internal/graph"
	"mimdloop/internal/program"
)

// The reference implementations below are the simulator as it was before
// messages moved to dense slots: arrivals and per-link FIFO state live in
// hash maps keyed by program.MsgKey and processor pair, and every
// fluctuation delay and trial seed runs a hash/fnv hasher over a byte
// buffer. They are the oracles the reference, digest and fuzz tests of
// this package compare Run, RunTrials, FluctModel.Delay and TrialSeed
// against.

// refFNV is FNV-64a by hash/fnv over each word's 8 little-endian bytes.
func refFNV(words ...int64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range words {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// refDelay is the reference FluctModel.Delay.
func refDelay(m FluctModel, key program.MsgKey) int {
	if m.MM <= 1 {
		return 0
	}
	return int(refFNV(m.Seed, int64(key.Node), int64(key.Iter), int64(key.From), int64(key.To)) % uint64(m.MM))
}

// refTrialSeed is the reference TrialSeed.
func refTrialSeed(base int64, trial int) int64 {
	if trial == 0 {
		return base
	}
	return int64(refFNV(base, int64(trial)))
}

// refRun is the reference Run.
func refRun(g *graph.Graph, progs []program.Program, cfg Config) (*Stats, error) {
	if cfg.Fluct < 0 {
		return nil, fmt.Errorf("machine: negative fluctuation %d", cfg.Fluct)
	}
	model := FluctModel{MM: cfg.Fluct, Seed: cfg.Seed}
	n := len(progs)
	arrivals := make(map[program.MsgKey]int)
	lastOnLink := make(map[[2]int]int)
	pc := make([]int, n)
	clock := make([]int, n)
	stats := &Stats{PerProc: make([]ProcStats, n)}

	for {
		progress := false
		done := true
		for p := 0; p < n; p++ {
			prog := &progs[p]
			for pc[p] < len(prog.Instrs) {
				in := prog.Instrs[pc[p]]
				switch in.Kind {
				case program.OpCompute:
					lat := g.Nodes[in.Node].Latency
					if cfg.Grain > 1 {
						lat *= cfg.Grain
					}
					clock[p] += lat
					stats.PerProc[p].Busy += lat
				case program.OpSend:
					key := program.MsgKey{Node: in.Node, Iter: in.Iter, From: p, To: in.Peer}
					cost := in.Cost
					if cfg.Override {
						cost = cfg.OverrideCost
					}
					delay := cost + refDelay(model, key)
					arr := clock[p] + delay
					if cfg.LinkFIFO {
						link := [2]int{p, in.Peer}
						if prev, ok := lastOnLink[link]; ok && prev > arr {
							arr = prev
						}
						lastOnLink[link] = arr
					}
					arrivals[key] = arr
					stats.PerProc[p].Sends++
					stats.Messages++
				case program.OpRecv:
					key := program.MsgKey{Node: in.Node, Iter: in.Iter, From: in.Peer, To: p}
					arr, ok := arrivals[key]
					if !ok {
						// Blocked: try again after other processors run.
						goto nextProc
					}
					if arr > clock[p] {
						stats.PerProc[p].Wait += arr - clock[p]
						clock[p] = arr
					}
					stats.PerProc[p].Recvs++
				}
				pc[p]++
				progress = true
			}
		nextProc:
			if pc[p] < len(prog.Instrs) {
				done = false
			}
		}
		if done {
			break
		}
		if !progress {
			return nil, deadlockError(progs, pc)
		}
	}
	for p := 0; p < n; p++ {
		stats.PerProc[p].Finish = clock[p]
		if clock[p] > stats.Makespan {
			stats.Makespan = clock[p]
		}
	}
	return stats, nil
}

// refRunTrials is the reference RunTrials.
func refRunTrials(g *graph.Graph, progs []program.Program, cfg Config, trials int) (*TrialStats, error) {
	if trials < 1 {
		return nil, fmt.Errorf("machine: trial count %d, want >= 1", trials)
	}
	ts := &TrialStats{Trials: trials, Makespans: make([]int, 0, trials)}
	sumMakespan, sumUtil := 0, 0.0
	for t := 0; t < trials; t++ {
		c := cfg
		c.Seed = refTrialSeed(cfg.Seed, t)
		stats, err := refRun(g, progs, c)
		if err != nil {
			return nil, fmt.Errorf("machine: trial %d: %w", t, err)
		}
		ts.Makespans = append(ts.Makespans, stats.Makespan)
		if t == 0 || stats.Makespan < ts.MakespanMin {
			ts.MakespanMin = stats.Makespan
		}
		if stats.Makespan > ts.MakespanMax {
			ts.MakespanMax = stats.Makespan
		}
		sumMakespan += stats.Makespan
		sumUtil += stats.Utilization()
		ts.Messages = stats.Messages
	}
	ts.MakespanMean = float64(sumMakespan) / float64(trials)
	ts.Utilization = sumUtil / float64(trials)
	return ts, nil
}
