package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"vkernel/internal/bufpool"
	"vkernel/internal/ipc"
	"vkernel/internal/obs"
	"vkernel/internal/rfs"
)

// env is one booted cluster with its clients, stores and content model.
type env struct {
	w       *workload
	cluster *rfs.Cluster
	stores  []*timedStore

	node    *ipc.Node   // the client workstation's node
	router  *rfs.Router // shared by every client on the node
	procs   []*ipc.Proc // one V process per client
	clients []*benchClient
	caching []*rfs.CachingClient
	models  map[uint32]*fileModel
	volOf   map[uint32]uint32 // file → volume

	// phases is how long each setup phase took, seconds: cluster boot
	// and preload, replica sync, client binding with the cache-filling
	// reads, and the warm-up operations.
	phases [4]float64
}

// benchClient is one closed-loop client. op runs one operation and
// returns whether it was a write and the interval the system spent on
// it; input generation and output checks stay outside that interval.
type benchClient struct {
	idx int
	rng *rand.Rand
	op  func(c *benchClient) (write bool, t0, t1 time.Time, err error)

	sharedWrites int64   // shared-file writes, reset by runWindow
	warmRate     float64 // warm-up operations per second

	mismatches int64
	firstErr   error
}

// check records a correctness failure (nil is a pass).
func (c *benchClient) check(err error) {
	if err == nil {
		return
	}
	c.mismatches++
	if c.firstErr == nil {
		c.firstErr = fmt.Errorf("client %d: %w", c.idx, err)
	}
}

// boot starts the workload's cluster over loopback UDP with every
// rfs.Config and ipc.NodeConfig knob at its default, preloads each
// volume copy's store with the files' initial content, waits for
// replicas to count in-sync, binds the clients and warms the caches.
func boot(w *workload, seed int64, images map[uint32][]byte) (*env, error) {
	e := &env{w: w, models: map[uint32]*fileModel{}, volOf: map[uint32]uint32{}}
	for vol, files := range w.files {
		for _, f := range files {
			e.models[f.id] = newFileModel(f.id, f.blocks, clients)
			e.volOf[f.id] = vol
		}
	}
	t0 := time.Now()
	lap := func(i int) {
		t := time.Now()
		e.phases[i] = t.Sub(t0).Seconds()
		t0 = t
	}
	cl, err := rfs.StartCluster(rfs.ClusterConfig{
		Shards:   w.shards,
		Replicas: w.replicas,
		UDP:      true,
		NewStore: func(vol uint32) rfs.Store {
			ts := &timedStore{inner: w.preloaded(vol, images), vol: vol}
			e.stores = append(e.stores, ts)
			return ts
		},
	})
	if err != nil {
		return nil, fmt.Errorf("boot cluster: %w", err)
	}
	e.cluster = cl
	for _, cs := range cl.Servers {
		for _, spec := range cs.Specs {
			spec.Store.(*timedStore).primary = spec.Role == rfs.RolePrimary
		}
	}
	lap(0)
	if err := e.awaitInSync(); err != nil {
		e.close()
		return nil, err
	}
	lap(1)
	if err := e.bindClients(seed); err != nil {
		e.close()
		return nil, err
	}
	lap(2)
	if err := e.warm(); err != nil {
		e.close()
		return nil, err
	}
	lap(3)
	return e, nil
}

// awaitInSync waits until every primary counts all its replicas in-sync
// (the rfs.vol<id>.repl_insync gauge), so timed writes take the
// synchronous replica-ack path from their first operation.
func (e *env) awaitInSync() error {
	if e.w.replicas == 0 {
		return nil
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		insync := 0
		for _, cs := range e.cluster.Servers {
			for _, spec := range cs.Specs {
				if spec.Role != rfs.RolePrimary {
					continue
				}
				if gauge(cs.Srv.Metrics(), fmt.Sprintf("rfs.vol%d.repl_insync", spec.ID)) >= int64(e.w.replicas) {
					insync++
				}
			}
		}
		if insync == len(e.cluster.Volumes) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas not in-sync after 20s (%d/%d volumes)", insync, len(e.cluster.Volumes))
		}
		time.Sleep(time.Millisecond)
	}
}

// gauge reads one gauge or counter from a registry (0 when absent).
func gauge(reg *obs.Registry, name string) int64 {
	var v int64
	pick := func(n string, x int64) {
		if n == name {
			v = x
		}
	}
	reg.Do(pick, pick, nil)
	return v
}

func (e *env) bindClients(seed int64) error {
	node, err := e.cluster.ClientNode()
	if err != nil {
		return err
	}
	e.node = node
	if e.router, err = rfs.NewRouter(node); err != nil {
		return err
	}
	for i := 0; i < clients; i++ {
		p, err := node.Attach(fmt.Sprintf("workstation%d", i))
		if err != nil {
			return err
		}
		e.procs = append(e.procs, p)
	}
	return e.w.bind(e, seed)
}

func (e *env) model(file uint32) *fileModel { return e.models[file] }

func (e *env) addClient(rng *rand.Rand) *benchClient {
	c := &benchClient{idx: len(e.clients), rng: rng}
	e.clients = append(e.clients, c)
	return c
}

// volumeClient is a plain routed stub client for client i's process.
func (e *env) volumeClient(i int, vol uint32) *rfs.Client {
	return rfs.NewVolumeClient(e.procs[i], e.router, vol)
}

// cachingClient is a routed caching client for client i's process, at
// the default cache size.
func (e *env) cachingClient(i int, vol uint32) (*rfs.CachingClient, error) {
	cc, err := rfs.NewVolumeCachingClient(e.procs[i], e.router, vol, rfs.CacheClientConfig{})
	if err != nil {
		return nil, err
	}
	e.caching = append(e.caching, cc)
	return cc, nil
}

// readAll reads every block of a file once through client i's process,
// filling the server cache from the store.
func (e *env) readAll(i int, vol, file uint32, blocks int) error {
	cl := e.volumeClient(i, vol)
	page := make([]byte, pageSize)
	for b := 0; b < blocks; b++ {
		if _, err := cl.ReadBlock(file, uint32(b), page); err != nil {
			return fmt.Errorf("warm read f%d/b%d: %w", file, b, err)
		}
	}
	return nil
}

// warm runs the workload's own operations, untimed, until the caches
// hold their steady-state mix.
func (e *env) warm() error {
	var wg sync.WaitGroup
	failed := make([]int, len(e.clients))
	for _, c := range e.clients {
		wg.Add(1)
		go func(c *benchClient) {
			defer wg.Done()
			t0 := time.Now()
			for i := 0; i < e.w.warmOps; i++ {
				if _, _, _, err := c.op(c); err != nil {
					failed[c.idx]++
				}
			}
			c.warmRate = float64(e.w.warmOps) / time.Since(t0).Seconds()
		}(c)
	}
	wg.Wait()
	for i, n := range failed {
		if n > 0 {
			return fmt.Errorf("warm-up: client %d had %d failed operations", i, n)
		}
	}
	return nil
}

// registries returns every node's metrics registry: each shard's (ipc,
// net and rfs together) and the client node's.
func (e *env) registries() []*obs.Registry {
	var regs []*obs.Registry
	for _, cs := range e.cluster.Servers {
		regs = append(regs, cs.Srv.Metrics())
	}
	return append(regs, e.node.Metrics())
}

// shardRegistries returns the shards' registries only.
func (e *env) shardRegistries() []*obs.Registry {
	var regs []*obs.Registry
	for _, cs := range e.cluster.Servers {
		regs = append(regs, cs.Srv.Metrics())
	}
	return regs
}

// storeTotals sums the counters of the stores selected by keep.
func (e *env) storeTotals(keep func(*timedStore) bool) storeCounts {
	var t storeCounts
	for _, s := range e.stores {
		if keep(s) {
			c := s.counts()
			t.reads += c.reads
			t.writes += c.writes
			t.readBytes += c.readBytes
			t.writeBytes += c.writeBytes
			t.busyNs += c.busyNs
		}
	}
	return t
}

func allStores(*timedStore) bool       { return true }
func primaryStores(s *timedStore) bool { return s.primary }

// setTracer attaches (or, with nil, detaches) a tracer to every store.
func (e *env) setTracer(t *tracer) {
	for _, s := range e.stores {
		s.tracer.Store(t)
	}
}

// syncVolumes drains every volume's write-behind blocks to its stores
// (OpSync on each primary).
func (e *env) syncVolumes() error {
	for _, vol := range e.cluster.Volumes {
		if err := e.volumeClient(0, vol).Sync(0); err != nil {
			return fmt.Errorf("sync volume %d: %w", vol, err)
		}
	}
	return nil
}

// checkStores compares every block of every file in the selected stores
// with the model.
func (e *env) checkStores(keep func(*timedStore) bool) error {
	page := make([]byte, pageSize)
	for _, s := range e.stores {
		if !keep(s) {
			continue
		}
		for file, m := range e.models {
			if e.volOf[file] != s.vol {
				continue
			}
			for b := 0; b < m.blocks; b++ {
				if _, err := s.inner.ReadAt(file, page, int64(b)*pageSize); err != nil {
					return fmt.Errorf("volume %d store: read f%d/b%d: %w", s.vol, file, b, err)
				}
				if err := m.checkFinal(page, b); err != nil {
					role := "replica"
					if s.primary {
						role = "primary"
					}
					return fmt.Errorf("volume %d %s store: %w", s.vol, role, err)
				}
			}
		}
	}
	return nil
}

// close tears the environment down: caching clients release their
// registrations, the router and client processes detach, and the
// cluster closes (servers flush their staged writes to the stores).
func (e *env) close() {
	for _, cc := range e.caching {
		cc.Close()
	}
	if e.router != nil {
		e.router.Close()
	}
	for _, p := range e.procs {
		e.node.Detach(p)
	}
	e.cluster.Close()
}

// teardownChecked closes the environment after checking the quiesced
// stores: primaries after an explicit sync, replicas after the servers'
// closing flush (a MemStore keeps its data when closed). It then waits
// for every pooled buffer to return.
func (e *env) teardownChecked() error {
	var errs []error
	if err := e.syncVolumes(); err != nil {
		errs = append(errs, err)
	} else if err := e.checkStores(primaryStores); err != nil {
		errs = append(errs, err)
	}
	e.close()
	if err := e.checkStores(func(s *timedStore) bool { return !s.primary }); err != nil {
		errs = append(errs, err)
	}
	if err := awaitBuffers(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// awaitBuffers waits for bufpool.Outstanding to return to 0: buffers
// still held after teardown are leaks.
func awaitBuffers() error {
	deadline := time.Now().Add(5 * time.Second)
	for bufpool.Outstanding() != 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("bufpool: %d buffers outstanding after teardown", bufpool.Outstanding())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}
