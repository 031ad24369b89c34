package main

import (
	"bytes"
	"fmt"
	"slices"

	root "hyperloop"
	"hyperloop/internal/cpusim"
	"hyperloop/internal/kvstore"
	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/shard"
	"hyperloop/internal/sim"
	"hyperloop/internal/txn"
	"hyperloop/internal/ycsb"
)

// Workload sizes. Every workload is a closed loop of one client fiber
// writing 1 KiB values. Op counts are per deployment, sized so even one
// deployment's p99 has minBeyond samples beyond it: 5,000 puts on kv,
// 2,100 txns on shard-txn.
const (
	valueSize   = 1024
	kvRecords   = 1000
	kvOps       = 10000
	shardKeys   = 1024
	shardOps    = 8400
	shardCount  = 32
	shardRepl   = 3
	shardRack   = 4 // servers the shard replicas are placed across
	shardLog    = 16 << 10
	shardDevExt = 128 << 10
)

type opKind uint8

const (
	opRead opKind = iota
	opPut
	opTxn
)

// op is one client operation. A txn writes key[j] = value(val+j) for
// j < n; a put writes key[0] = value(val).
type op struct {
	kind opKind
	n    uint8
	key  [4]int32
	val  int32
}

// inputs is a workload's whole op stream, generated from the seed before
// any timing starts. Value i is a distinct 1 KiB string; values
// 0..keys-1 preload key i.
type inputs struct {
	keys   int
	ops    []op
	values []byte
}

func (in *inputs) value(i int32) []byte {
	return in.values[int(i)*valueSize : int(i+1)*valueSize]
}

func (in *inputs) fillValues(rng *sim.RNG, n int) {
	in.values = make([]byte, n*valueSize)
	for i := 0; i < len(in.values); i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8; j++ {
			in.values[i+j] = 'a' + byte((v>>(8*j))%26)
		}
	}
}

// shuffledMix returns n ops whose kinds and key counts follow mix
// exactly, in a seeded random order. An exact mix keeps the work per op
// stream the same across seeds, so seeds vary only which keys are hit
// and in what order.
func shuffledMix(rng *sim.RNG, n int, mix []op) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = mix[i%len(mix)]
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		ops[i], ops[j] = ops[j], ops[i]
	}
	return ops
}

// genKV is YCSB-A: 50% read / 50% update over kvRecords keys drawn from
// internal/ycsb's zipfian generator (theta 0.99).
func genKV(seed uint64) *inputs {
	rng := sim.NewRNG(seed)
	gen := ycsb.NewGenerator(ycsb.WorkloadA.Dist, rng.Fork(), kvRecords)
	in := &inputs{keys: kvRecords, ops: shuffledMix(rng, kvOps, []op{{kind: opRead, n: 1}, {kind: opPut, n: 1}})}
	next := int32(kvRecords)
	for i := range in.ops {
		o := &in.ops[i]
		if o.kind == opPut {
			o.val = next
			next++
		}
		o.key[0] = int32(gen.Next(kvRecords))
	}
	in.fillValues(rng, int(next))
	return in
}

// genShard is 50% Router.Get, 25% Router.Put and 25% Router.Txn, a third
// each over 2, 3 and 4 distinct zipfian keys.
func genShard(seed uint64) *inputs {
	rng := sim.NewRNG(seed)
	zipf := ycsb.NewZipfian(rng.Fork(), shardKeys, ycsb.ZipfianConstant)
	read, put := op{kind: opRead, n: 1}, op{kind: opPut, n: 1}
	mix := []op{read, read, put, {kind: opTxn, n: 2}, read, read, put, {kind: opTxn, n: 3}, read, read, put, {kind: opTxn, n: 4}}
	in := &inputs{keys: shardKeys, ops: shuffledMix(rng, shardOps, mix)}
	next := int32(shardKeys)
	for i := range in.ops {
		o := &in.ops[i]
		for j := 0; j < int(o.n); {
			k := int32(zipf.Next(shardKeys))
			if !slices.Contains(o.key[:j], k) {
				o.key[j] = k
				j++
			}
		}
		if o.kind != opRead {
			o.val = next
			next += int32(o.n)
		}
	}
	in.fillValues(rng, int(next))
	return in
}

// counts are the simulator's deterministic counters summed over a
// deployment, indexed by the c* constants; a round reports their change
// across its op stream.
type counts [nCounts]int64

const (
	cEvents = iota
	cFiberStarts
	cFast
	cSlow
	cMsgs
	cWireBytes
	cCQEs
	cWQEs
	cNVMWrites
	cNVMFlushes
	cCtxSwitches
	cWakes
	cProtoIssued
	cProtoRetried
	cCheckpoints
	cGets
	cMisses
	cCommits
	cAborts
	cCross
	nCounts
)

func (c counts) sub(o counts) counts {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c counts) add(o counts) counts {
	for i := range c {
		c[i] += o[i]
	}
	return c
}

// hwCounts adds the kernel, fabric, NIC, device and scheduler counters.
func hwCounts(c *counts, k *sim.Kernel, fab *rdma.Fabric, nics []*rdma.NIC, scheds []*cpusim.Scheduler) {
	c[cEvents], c[cFiberStarts] = k.Executed(), k.FiberStarts()
	c[cFast], c[cSlow] = k.FastDispatches(), k.SlowDispatches()
	c[cMsgs], c[cWireBytes] = fab.Stats()
	c[cCQEs] = fab.CQEs()
	for _, n := range nics {
		w, _ := n.Stats()
		c[cWQEs] += w
		dw, df, _ := n.Memory().Stats()
		c[cNVMWrites] += dw
		c[cNVMFlushes] += df
	}
	for _, s := range scheds {
		c[cCtxSwitches] += s.ContextSwitches()
		c[cWakes] += s.Wakes()
	}
}

// group is what the benchmark needs from a kv workload's replication
// group; hyperloop.Group and hyperloop.NaiveGroup both provide it.
type group interface {
	txn.Replicator
	Stats() (issued, completed int64)
	Retried() int64
	Close()
}

// target is one built deployment of a workload.
type target interface {
	kernel() *sim.Kernel
	run(fn func(f *sim.Fiber) error) error
	put(f *sim.Fiber, key int32, v []byte) error
	get(key int32) ([]byte, error)
	txn(f *sim.Fiber, o *op, in *inputs) error
	counts() counts
	utilization() float64
	// verifyReplicas compares every replica's durable image with the
	// client's mirror, returning the number of mismatching replicas.
	verifyReplicas() (int, error)
	close()
}

// kvTarget is kvstore over a three-replica group on a multi-tenant
// cluster.
type kvTarget struct {
	c      *root.Cluster
	g      group
	db     *kvstore.DB
	keys   [][]byte
	mirror int
}

func kvConfig(seed uint64) kvstore.Config {
	cfg := kvstore.DefaultConfig()
	cfg.Seed = seed
	// Room for a checkpoint of every record: header plus key and value.
	cfg.DataSize = 2 << 20
	return cfg
}

// buildKV builds kv-chain, or kv-naive when naive is set. With a tracer,
// kvstore runs over the span-recording replicator shim.
func buildKV(seed uint64, naive bool, tr *tracer) (target, error) {
	c, err := root.NewCluster(root.ClusterConfig{
		Seed:            seed,
		Replicas:        3,
		MultiTenantLoad: true,
		DeviceSize:      4 << 20,
	})
	if err != nil {
		return nil, err
	}
	cfg := kvConfig(seed)
	mirror := kvstore.MirrorSizeFor(cfg)
	var g group
	if naive {
		g, err = c.NewNaiveGroup(mirror, root.NaiveEvent)
	} else {
		g, err = c.NewGroup(mirror)
	}
	if err != nil {
		return nil, err
	}
	var rep txn.Replicator = g
	if tr != nil {
		tr.k = c.Kernel()
		rep = repShim{Replicator: g, t: tr}
	}
	db, err := kvstore.Open(rep, cfg)
	if err != nil {
		g.Close()
		return nil, err
	}
	keys := make([][]byte, kvRecords)
	for i := range keys {
		keys[i] = []byte(ycsb.Key(i))
	}
	return &kvTarget{c: c, g: g, db: db, keys: keys, mirror: mirror}, nil
}

func (t *kvTarget) kernel() *sim.Kernel                   { return t.c.Kernel() }
func (t *kvTarget) run(fn func(f *sim.Fiber) error) error { return t.c.Run(fn) }
func (t *kvTarget) close()                                { t.g.Close() }

func (t *kvTarget) put(f *sim.Fiber, key int32, v []byte) error { return t.db.Put(f, t.keys[key], v) }

func (t *kvTarget) get(key int32) ([]byte, error) {
	v, _ := t.db.Get(t.keys[key])
	return v, nil
}

func (t *kvTarget) txn(*sim.Fiber, *op, *inputs) error {
	return fmt.Errorf("kvstore has no multi-key transactions")
}

func (t *kvTarget) counts() counts {
	var c counts
	nics := append(t.c.ReplicaNICs(), t.c.ClientNIC())
	hwCounts(&c, t.c.Kernel(), t.c.Fabric(), nics, t.c.Schedulers())
	c[cProtoIssued], _ = t.g.Stats()
	c[cProtoRetried] = t.g.Retried()
	c[cCheckpoints] = t.db.Stats().Checkpoints
	return c
}

func (t *kvTarget) utilization() float64 { return meanUtil(t.c.Schedulers()) }

func (t *kvTarget) verifyReplicas() (int, error) {
	want, err := t.g.ReadLocal(0, t.mirror)
	if err != nil {
		return 0, err
	}
	got := make([]byte, t.mirror)
	bad := 0
	for _, n := range t.c.ReplicaNICs() {
		if err := n.Memory().ReadDurable(0, got); err != nil {
			return 0, err
		}
		if !bytes.Equal(got, want) {
			bad++
		}
	}
	return bad, nil
}

func meanUtil(scheds []*cpusim.Scheduler) float64 {
	if len(scheds) == 0 {
		return 0
	}
	var u float64
	for _, s := range scheds {
		u += s.Utilization()
	}
	return u / float64(len(scheds))
}

// shardTarget is a Router over shardCount three-replica chains with the
// coordinator commit log on.
type shardTarget struct {
	c      *root.ShardedCluster
	r      *root.ShardRouter
	nics   []*rdma.NIC
	groups []protocol.Protocol
	writes []root.ShardWrite
}

// buildShard builds shard-txn. With a tracer, the router's txn step hook
// records 2PC step spans.
func buildShard(seed uint64, tr *tracer) (target, error) {
	cfg := root.ShardedClusterConfig{
		Seed:             seed,
		Shards:           shardCount,
		ReplicasPerShard: shardRepl,
		Servers:          shardRack,
		CommitLog:        true,
		DeviceExtra:      shardDevExt,
		Routing: root.ShardRoutingConfig{
			SlotSize:      valueSize,
			SlotsPerShard: 2*shardKeys/shardCount + 32,
			LogSize:       shardLog,
		},
	}
	c, err := root.NewShardedCluster(cfg)
	if err != nil {
		return nil, err
	}
	t := &shardTarget{c: c, r: c.Router()}
	// The facade names NICs by placement; rebuild the names to reach every
	// NIC's counters, and fail loudly if the naming ever changes.
	place, err := shard.Place(shard.RoundRobin, shardCount, shardRepl, shardRack, nil)
	if err != nil {
		c.Close()
		return nil, err
	}
	names := []string{"cli/coord"}
	for j := 0; j < shardRepl; j++ {
		names = append(names, fmt.Sprintf("srv%d/coord.%d", j%shardRack, j))
	}
	for id, srvs := range place {
		names = append(names, fmt.Sprintf("cli/sh%d", id))
		for j, srv := range srvs {
			names = append(names, fmt.Sprintf("srv%d/sh%d.%d", srv, id, j))
		}
	}
	for _, name := range names {
		n := c.Fabric().NIC(name)
		if n == nil {
			c.Close()
			return nil, fmt.Errorf("sharded cluster has no NIC %q", name)
		}
		t.nics = append(t.nics, n)
	}
	for i := 0; i < t.r.Shards(); i++ {
		p, ok := t.r.Shard(i).Backend.(protocol.Protocol)
		if !ok {
			c.Close()
			return nil, fmt.Errorf("shard %d backend %T is not a protocol.Protocol", i, t.r.Shard(i).Backend)
		}
		t.groups = append(t.groups, p)
	}
	if tr != nil {
		tr.k = c.Kernel()
		t.r.SetTxnStepHook(tr.step)
	}
	return t, nil
}

func (t *shardTarget) kernel() *sim.Kernel                   { return t.c.Kernel() }
func (t *shardTarget) run(fn func(f *sim.Fiber) error) error { return t.c.Run(fn) }
func (t *shardTarget) close()                                { t.c.Close() }

func (t *shardTarget) put(f *sim.Fiber, key int32, v []byte) error {
	return t.r.Put(f, uint64(key), v)
}

func (t *shardTarget) get(key int32) ([]byte, error) { return t.r.Get(uint64(key)) }

func (t *shardTarget) txn(f *sim.Fiber, o *op, in *inputs) error {
	t.writes = t.writes[:0]
	for j := 0; j < int(o.n); j++ {
		t.writes = append(t.writes, root.ShardWrite{Key: uint64(o.key[j]), Data: in.value(o.val + int32(j))})
	}
	return t.r.Txn(f, t.writes)
}

func (t *shardTarget) counts() counts {
	var c counts
	hwCounts(&c, t.c.Kernel(), t.c.Fabric(), t.nics, t.c.Schedulers())
	for _, b := range t.groups {
		issued, _ := b.Stats()
		c[cProtoIssued] += issued
		c[cProtoRetried] += b.Retried()
	}
	st := t.r.Stats()
	c[cGets], c[cMisses] = int64(st.Gets), int64(st.Misses)
	c[cCommits], c[cAborts], c[cCross] = int64(st.Commits), int64(st.Aborts), int64(st.CrossShard)
	return c
}

func (t *shardTarget) utilization() float64 { return meanUtil(t.c.Schedulers()) }

func (t *shardTarget) verifyReplicas() (int, error) { return 0, nil }
