// Command vbench regenerates every table and numeric section of the
// paper's evaluation and prints paper-vs-measured results.
//
// Usage:
//
//	vbench            # run everything
//	vbench -list      # list experiment ids
//	vbench table51    # run selected experiments
//	vbench -max-dev   # also print each table's max deviation from the paper
//	vbench -shard     # volume-sharding scaling benchmark (BENCH_shard.json)
//	vbench -replica   # replication read-scaling + failover-gap benchmark (BENCH_replica.json)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"vkernel/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	maxDev := flag.Bool("max-dev", false, "print each table's maximum deviation from the paper")
	shard := flag.Bool("shard", false, "run the volume-sharding scaling benchmark instead of the paper tables")
	shardOut := flag.String("shard-out", "BENCH_shard.json", "artifact path for -shard (empty: stdout only)")
	shardDur := flag.Duration("shard-duration", 1500*time.Millisecond, "per-phase window for -shard")
	shardClients := flag.Int("shard-clients", 16, "concurrent clients for -shard")
	shardDelay := flag.Duration("shard-delay", time.Millisecond, "per-op device service time for -shard")
	replica := flag.Bool("replica", false, "run the replication read-scaling and failover benchmark instead of the paper tables")
	replicaOut := flag.String("replica-out", "BENCH_replica.json", "artifact path for -replica (empty: stdout only)")
	replicaDur := flag.Duration("replica-duration", 1500*time.Millisecond, "per-point read window for -replica")
	replicaClients := flag.Int("replica-clients", 16, "concurrent readers for -replica")
	replicaDelay := flag.Duration("replica-delay", time.Millisecond, "per-op device service time for -replica")
	replicaTrials := flag.Int("replica-trials", 3, "failover kill/promote trials for -replica")
	flag.Parse()

	if *replica {
		err := runReplica(replicaConfig{
			replicas: []int{0, 1, 2},
			clients:  *replicaClients,
			duration: *replicaDur,
			delay:    *replicaDelay,
			trials:   *replicaTrials,
			out:      *replicaOut,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "vbench: replica benchmark failed: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *shard {
		err := runShard(shardConfig{
			shards:   []int{1, 2, 4},
			clients:  *shardClients,
			duration: *shardDur,
			delay:    *shardDelay,
			out:      *shardOut,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "vbench: shard benchmark failed: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range experiments.Registry {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	selected := experiments.Registry
	if args := flag.Args(); len(args) > 0 {
		selected = nil
		for _, id := range args {
			e, ok := experiments.Find(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "vbench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	failed := 0
	for _, e := range selected {
		fmt.Printf("=== %s: %s\n", e.ID, e.Title)
		start := time.Now()
		res, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "vbench: %s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		for _, t := range res.Tables {
			fmt.Println()
			fmt.Print(t.Render())
			if *maxDev {
				fmt.Printf("max deviation from paper: %.1f%%\n", 100*t.MaxDeviation())
			}
		}
		for _, n := range res.Notes {
			fmt.Printf("note: %s\n", n)
		}
		fmt.Printf("(%s wall time)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		os.Exit(1)
	}
}
