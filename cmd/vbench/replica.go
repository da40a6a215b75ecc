package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"vkernel/internal/ipc"
	"vkernel/internal/rfs"
)

// replicaConfig parameterizes the replication benchmark: the read-
// scaling sweep over replica counts and the failover-gap trials.
type replicaConfig struct {
	replicas []int         // replica counts to sweep (copies = replicas+1)
	clients  int           // concurrent readers for the scaling sweep
	duration time.Duration // per-point measurement window
	delay    time.Duration // per-operation device service time
	trials   int           // failover kill/promote measurements
	out      string        // JSON artifact path ("" → stdout only)
}

// replicaScalePoint is one replica count's aggregate read throughput.
type replicaScalePoint struct {
	Replicas      int     `json:"replicas"`
	Copies        int     `json:"copies"`
	ReadOpsPerSec float64 `json:"read_ops_per_s"`
}

// replicaTrial is one kill-the-primary measurement: the gap from the
// kill to the first successful routed operation of each kind.
type replicaTrial struct {
	ReadGapMS  float64 `json:"read_gap_ms"`
	WriteGapMS float64 `json:"write_gap_ms"`
}

// replicaFailover aggregates the failover trials.
type replicaFailover struct {
	LeaseMS          float64        `json:"lease_ms"`
	Trials           []replicaTrial `json:"trials"`
	MedianReadGapMS  float64        `json:"median_read_gap_ms"`
	MedianWriteGapMS float64        `json:"median_write_gap_ms"`
}

// replicaArtifact is the committed BENCH_replica.json shape.
type replicaArtifact struct {
	Bench         string              `json:"bench"`
	Clients       int                 `json:"clients"`
	DeviceDelayMS float64             `json:"device_delay_ms"`
	DurationS     float64             `json:"duration_s"`
	ReadScaling   []replicaScalePoint `json:"read_scaling"`
	Failover      replicaFailover     `json:"failover"`
}

const (
	replicaFile   = 1
	replicaBlocks = 4096 // large vs. the server cache, so reads hit the device
	// replicaLease is the failover trials' heartbeat lease: the promotion
	// detection time, and so the dominant term of the write gap.
	replicaLease = 150 * time.Millisecond
)

// runReplica measures what replication buys and what failover costs.
//
// Read scaling: one volume, r read replicas, every store a DelayStore
// (one op in service at a time — one disk), clients round-robining
// reads over the in-sync set via SpreadReads. Each extra copy adds a
// device, so device-bound read throughput should scale with copies
// until the clients stop being able to saturate the devices.
//
// Failover: kill the primary under a routed client and time the gap to
// the first successful read (a surviving replica serves it as soon as
// the router's read set falls back) and the first successful write
// (needs the replica to detect the lapsed lease and promote).
func runReplica(cfg replicaConfig) error {
	art := replicaArtifact{
		Bench:         "rfs-replication",
		Clients:       cfg.clients,
		DeviceDelayMS: float64(cfg.delay) / float64(time.Millisecond),
		DurationS:     cfg.duration.Seconds(),
	}
	for _, r := range cfg.replicas {
		pt, err := runReplicaScaleOnce(r, cfg)
		if err != nil {
			return fmt.Errorf("%d replicas: %w", r, err)
		}
		art.ReadScaling = append(art.ReadScaling, pt)
		fmt.Printf("replicas=%d (copies=%d)  reads %8.0f ops/s\n", pt.Replicas, pt.Copies, pt.ReadOpsPerSec)
	}
	if len(art.ReadScaling) >= 2 {
		first, last := art.ReadScaling[0], art.ReadScaling[len(art.ReadScaling)-1]
		fmt.Printf("read scaling %d->%d copies: %.2fx\n",
			first.Copies, last.Copies, last.ReadOpsPerSec/first.ReadOpsPerSec)
	}

	art.Failover.LeaseMS = float64(replicaLease) / float64(time.Millisecond)
	for i := 0; i < cfg.trials; i++ {
		tr, err := runReplicaFailoverOnce()
		if err != nil {
			return fmt.Errorf("failover trial %d: %w", i, err)
		}
		art.Failover.Trials = append(art.Failover.Trials, tr)
		fmt.Printf("failover trial %d: first read %.1fms, first write %.1fms after kill\n",
			i, tr.ReadGapMS, tr.WriteGapMS)
	}
	art.Failover.MedianReadGapMS = medianOf(art.Failover.Trials, func(t replicaTrial) float64 { return t.ReadGapMS })
	art.Failover.MedianWriteGapMS = medianOf(art.Failover.Trials, func(t replicaTrial) float64 { return t.WriteGapMS })
	fmt.Printf("failover median: read %.1fms, write %.1fms (lease %v)\n",
		art.Failover.MedianReadGapMS, art.Failover.MedianWriteGapMS, replicaLease)

	if cfg.out == "" {
		return nil
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.out, append(data, '\n'), 0o644)
}

// startReplicaCluster boots one replicated volume: primary on shard 0,
// replica r on shard r, every copy's store seeded with the benchmark
// file and wrapped in the one-op-at-a-time device model. The workload
// is device-bound, so a host per copy does not skew the scaling story —
// the devices, not the hosts, are the capacity being added.
func startReplicaCluster(shards, replicas int, cfg replicaConfig) (*rfs.Cluster, error) {
	return rfs.StartCluster(rfs.ClusterConfig{
		Shards:   shards,
		Volumes:  []uint32{replicaFile},
		Replicas: replicas,
		Node: ipc.NodeConfig{
			RetransmitTimeout: 5 * time.Millisecond,
			Retries:           5,
			GetPidTimeout:     10 * time.Millisecond,
			GetPidRetries:     5,
		},
		Server: rfs.Config{
			CacheBlocks:       16, // tiny server cache: reads go to the device
			ReplicaLease:      replicaLease,
			ReplicaAckTimeout: 50 * time.Millisecond,
		},
		NewStore: func(vol uint32) rfs.Store {
			ms := rfs.NewMemStore()
			if err := ms.Create(replicaFile, replicaBlocks*512); err != nil {
				panic(err)
			}
			return rfs.NewDelayStore(ms, cfg.delay)
		},
	})
}

// awaitReplication writes a marker block through the routed client and
// waits until every replica has caught up to it — via an applied push
// record when the replica joined before the write, via a snapshot
// resync when it joined after — so the copy set is proven live before
// measurement starts.
func awaitReplication(cluster *rfs.Cluster, client *rfs.Client, replicas int) error {
	page := make([]byte, 512)
	if err := client.WriteBlock(replicaFile, 0, page); err != nil {
		return fmt.Errorf("seed write: %w", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		caughtUp := 0
		for _, cs := range cluster.Servers {
			if cs.Srv == nil {
				continue
			}
			reg := cs.Srv.Metrics()
			applied, _ := reg.Value("rfs.repl_applied")
			resyncs, _ := reg.Value("rfs.repl_resyncs")
			if applied > 0 || resyncs > 0 {
				caughtUp++
			}
		}
		if caughtUp >= replicas {
			// One more lease quarter so the heartbeats mark everyone
			// in-sync and the read set includes the full copy set.
			time.Sleep(replicaLease / 2)
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas never caught up (%d/%d)", caughtUp, replicas)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// runReplicaScaleOnce measures one copy count's aggregate device-bound
// read throughput.
func runReplicaScaleOnce(replicas int, cfg replicaConfig) (replicaScalePoint, error) {
	cluster, err := startReplicaCluster(replicas+1, replicas, cfg)
	if err != nil {
		return replicaScalePoint{}, err
	}
	defer cluster.Close()

	node, err := cluster.ClientNode()
	if err != nil {
		return replicaScalePoint{}, err
	}
	router, err := rfs.NewRouter(node)
	if err != nil {
		return replicaScalePoint{}, err
	}
	defer router.Close()

	clients := make([]*rfs.Client, cfg.clients)
	for i := range clients {
		p, err := node.Attach(fmt.Sprintf("bench%d", i))
		if err != nil {
			return replicaScalePoint{}, err
		}
		defer node.Detach(p)
		clients[i] = rfs.NewVolumeClient(p, router, replicaFile)
		clients[i].SpreadReads(true)
	}
	if err := awaitReplication(cluster, clients[0], replicas); err != nil {
		return replicaScalePoint{}, err
	}

	// Warm-up primes the router's read set; block 0 carries the
	// replication marker, so reads stay on blocks 1+.
	readOp := func(c *rfs.Client, rng *rand.Rand, page []byte) error {
		_, err := c.ReadBlock(replicaFile, 1+uint32(rng.Intn(replicaBlocks-1)), page)
		return err
	}
	if _, _, err := shardPhase(clients, 100*time.Millisecond, readOp); err != nil {
		return replicaScalePoint{}, err
	}
	ops, _, err := shardPhase(clients, cfg.duration, readOp)
	if err != nil {
		return replicaScalePoint{}, err
	}
	return replicaScalePoint{
		Replicas:      replicas,
		Copies:        replicas + 1,
		ReadOpsPerSec: float64(ops) / cfg.duration.Seconds(),
	}, nil
}

// runReplicaFailoverOnce kills a fresh pair's primary and times the gap
// to the first successful routed read and write.
func runReplicaFailoverOnce() (replicaTrial, error) {
	cluster, err := startReplicaCluster(2, 1, replicaConfig{delay: 0})
	if err != nil {
		return replicaTrial{}, err
	}
	defer cluster.Close()

	node, err := cluster.ClientNode()
	if err != nil {
		return replicaTrial{}, err
	}
	router, err := rfs.NewRouter(node)
	if err != nil {
		return replicaTrial{}, err
	}
	defer router.Close()

	attach := func(name string, spread bool) (*rfs.Client, error) {
		p, err := node.Attach(name)
		if err != nil {
			return nil, err
		}
		c := rfs.NewVolumeClient(p, router, replicaFile)
		c.SpreadReads(spread)
		return c, nil
	}
	reader, err := attach("reader", true)
	if err != nil {
		return replicaTrial{}, err
	}
	writer, err := attach("writer", false)
	if err != nil {
		return replicaTrial{}, err
	}
	if err := awaitReplication(cluster, writer, 1); err != nil {
		return replicaTrial{}, err
	}
	page := make([]byte, 512)
	if _, err := reader.ReadBlock(replicaFile, 1, page); err != nil { // prime the read set
		return replicaTrial{}, err
	}

	cluster.Kill(0) // the primary's shard
	t0 := time.Now()
	deadline := t0.Add(10 * time.Second)
	var tr replicaTrial
	for {
		if _, err := reader.ReadBlock(replicaFile, 1, page); err == nil {
			tr.ReadGapMS = float64(time.Since(t0)) / float64(time.Millisecond)
			break
		}
		if time.Now().After(deadline) {
			return tr, fmt.Errorf("no successful read within %v of the kill", time.Since(t0))
		}
	}
	for {
		if err := writer.WriteBlock(replicaFile, 2, page); err == nil {
			tr.WriteGapMS = float64(time.Since(t0)) / float64(time.Millisecond)
			break
		}
		if time.Now().After(deadline) {
			return tr, fmt.Errorf("no successful write within %v of the kill", time.Since(t0))
		}
	}
	return tr, nil
}

// medianOf extracts one gap from every trial and returns the median.
func medianOf(trials []replicaTrial, get func(replicaTrial) float64) float64 {
	if len(trials) == 0 {
		return 0
	}
	vals := make([]float64, len(trials))
	for i, t := range trials {
		vals[i] = get(t)
	}
	sort.Float64s(vals)
	return vals[len(vals)/2]
}
