// Command perfbench is the repository's end-to-end benchmark: it boots
// the real rfs/ipc stack over loopback UDP in one process, drives it
// with closed-loop diskless-workstation clients, checks every byte the
// clients and stores hold against a model, and prints the metrics as
// one JSON line.
//
//	perfbench --workload page-hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, from probes and a window
// of alternating untraced and traced segments (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setups is how many clusters a run boots, preloads and warms. setup_s
// is their median. Without tracing each cluster runs an equal share of
// the window and the metrics pool the parts of all of them: throughput
// and latency differ more between two clusters booted in one process
// than between the parts of one cluster's share. A traced run boots one
// cluster and does not report setup_s.
const setups = 9

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// littlesLawTol is the Little's Law self-check's tolerance: with every
// client always inside an operation, throughput × mean latency equals
// the client count; a harness stall or timing bug breaks the equality.
// The harness's own work between operations (checking a page, keeping
// a sample) costs about 3 % of the loop on page-hot.
const littlesLawTol = 0.1

func main() {
	var (
		name    = flag.String("workload", "", "workload: page-hot, stream-64k or workstation-mix")
		seed    = flag.Int64("seed", 1, "workload seed (block and Zipf draws)")
		seconds = flag.Int("seconds", 10, "measured window, seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from probes and a traced window")
		root    = flag.String("root", ".", "repository root (source digest)")
		work    = flag.String("work", ".bench_build", "directory for the trace dump")
		commit  = flag.String("commit", "unknown", "commit the binary was built from")
	)
	flag.Parse()
	w := workloads[*name]
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	prov := provenance(w, *seed, *seconds, *trace == 1, *root, *commit)
	res, detail, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *work, prov)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	prov["detail"] = detail
	line, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Println(string(line))
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run boots the workload's clusters one after another, measures each,
// checks and tears it down. Correctness failures set Correct=false; an
// error means the run could not be carried out at all.
func run(w *workload, seed int64, d time.Duration, traced bool, work string, prov map[string]any) (result, map[string]any, error) {
	images := map[uint32][]byte{}
	for _, files := range w.files {
		for _, f := range files {
			images[f.id] = preloadImage(f.id, f.blocks)
		}
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	detail := map[string]any{}
	var setupS []float64
	var phases [][4]float64
	var wins []window
	var problems []string
	n := setups
	if traced {
		n = 1
	}
	for i := 0; i < n; i++ {
		// The previous cluster's garbage is collected before the clock
		// starts, so each setup pays only for its own.
		runtime.GC()
		t0 := time.Now()
		e, err := boot(w, seed, images)
		if err != nil {
			return result{}, nil, fmt.Errorf("setup %d: %w", i+1, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		phases = append(phases, e.phases)
		if traced {
			ws, err := measureTraced(e, d, res.Metrics, detail, work, prov)
			if err != nil {
				e.close()
				return result{}, nil, err
			}
			wins = append(wins, ws...)
		} else {
			wins = append(wins, runWindow(e.clients, d/setups, nil))
		}
		for _, c := range e.clients {
			if c.firstErr != nil {
				problems = append(problems, fmt.Sprintf("cluster %d: %d mismatches, first: %v", i+1, c.mismatches, c.firstErr))
			}
		}
		if err := e.teardownChecked(); err != nil {
			problems = append(problems, fmt.Sprintf("cluster %d: %v", i+1, err))
		}
	}
	if !traced {
		all := merged(wins)
		endToEnd(all, median(setupS), res.Metrics)
		detail["unsteady"] = unsteady(all)
	}
	var samples []map[string]any
	for _, win := range wins {
		res.Attempted += win.ops
		res.Failed += win.failed
		lle := win.littlesLawErr(clients)
		var partOps []int64
		for _, p := range win.parts {
			partOps = append(partOps, p.ops)
		}
		samples = append(samples, map[string]any{
			"read": win.reads, "write": win.writes, "window_s": win.elapsed.Seconds(),
			"littles_law_err": lle, "part_ops": partOps,
		})
		if win.failed > 0 {
			problems = append(problems, fmt.Sprintf("%d of %d operations failed", win.failed, win.ops))
		}
		if lle > littlesLawTol {
			problems = append(problems, fmt.Sprintf("Little's Law: X·R = %.3f clients, want %d within %.0f%%",
				float64(win.busyNs)/float64(win.elapsed.Nanoseconds()), clients, littlesLawTol*100))
		}
	}
	detail["setup_s"] = setupS
	detail["setup_phases_s"] = phases
	detail["windows"] = samples
	if len(problems) > 0 {
		res.Correct = false
		detail["problems"] = problems
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
		}
	}
	return res, detail, nil
}

// endToEnd fills the metrics a user of the file service sees, each the
// median over the window's one-second parts.
func endToEnd(w window, setupS float64, m map[string]metric) {
	m["setup_s"] = metric{setupS, "s"}
	m["read_p50_us"] = metric{w.partMedian(func(p part) float64 { return quantileUs(p.reads, 0.50) }), "us"}
	m["write_p50_us"] = metric{w.partMedian(func(p part) float64 { return quantileUs(p.writes, 0.50) }), "us"}
}

// unsteady returns the client-visible metrics that are reported but do
// not gate a change: throughput, CPU per operation and the tails follow
// the host's CPU steal more than the code (see README.md).
func unsteady(w window) map[string]metric {
	return map[string]metric{
		"ops_per_s":     {w.partOpsPerSec(), "1/s"},
		"cpu_us_per_op": {w.partMedian(func(p part) float64 { return float64(p.cpu.Nanoseconds()) / 1e3 / float64(p.ops) }), "us"},
		"read_p99_us":   {w.partMedian(func(p part) float64 { return quantileUs(p.reads, 0.99) }), "us"},
		"write_p99_us":  {w.partMedian(func(p part) float64 { return quantileUs(p.writes, 0.99) }), "us"},
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// provenance records what produced the numbers: host, toolchain,
// source and workload.
func provenance(w *workload, seed int64, seconds int, traced bool, root, commit string) map[string]any {
	digest, err := sourceDigest(root)
	if err != nil {
		digest = "unavailable: " + err.Error()
	}
	return map[string]any{
		"workload":      w.name,
		"params":        w.params,
		"clients":       clients,
		"seed":          seed,
		"seconds":       seconds,
		"trace":         traced,
		"host_cpus":     runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        commit,
		"source_sha256": digest,
		"started":       time.Now().UTC().Format(time.RFC3339),
	}
}

// traceFile names a traced run's span dump; each traced run of a
// workload replaces the last one's (the header names the seed).
func traceFile(work string, prov map[string]any) string {
	return filepath.Join(work, fmt.Sprintf("trace-%s.tsv", prov["workload"]))
}
