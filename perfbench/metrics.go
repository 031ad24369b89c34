package main

import (
	"fmt"
	"strings"
)

// metricDef documents one metric. clock is "host" for wall time and
// host-side counts, "virtual" for simulated time, "count" for
// deterministic simulator counters; layer is the repo module it measures,
// "e2e" for what a user of the system sees.
type metricDef struct {
	name, unit, better, clock, layer, desc string
}

var endToEndDefs = []metricDef{
	{"sim_ops_per_s", "1/s", "higher", "host", "e2e", "client ops completed per host second in the op stream, median over timed rounds"},
	{"setup_s", "s", "lower", "host", "e2e", "host seconds to build the deployment and preload every key, median over timed rounds"},
	{"peak_rss_mb", "MB", "lower", "host", "e2e", "peak resident memory of the benchmark process"},
	{"write_p50_us", "us", "lower", "virtual", "e2e", "median kvstore.Put or Router.Put latency"},
	{"write_p99_us", "us", "lower", "virtual", "e2e", "p99 kvstore.Put or Router.Put latency"},
	{"txn_p50_us", "us", "lower", "virtual", "e2e", "median transaction latency: Router.Txn on shard-txn; on kv-* every kvstore.Put is a one-record txn.Store transaction, so it equals write_p50_us"},
	{"txn_p99_us", "us", "lower", "virtual", "e2e", "p99 transaction latency, as txn_p50_us"},
	{"vops_per_ms", "1/ms", "higher", "virtual", "e2e", "client ops completed per virtual millisecond"},
}

var perLayerDefs = []metricDef{
	{"op_fail_ratio", "ratio", "lower", "count", "e2e", "failed plus wrong-result ops over attempted ops, all rounds"},
	{"bench.write_samples", "count", "higher", "count", "e2e", "put latency samples per round behind write_p50_us/write_p99_us"},
	{"bench.txn_samples", "count", "higher", "count", "e2e", "transaction latency samples per round behind txn_p50_us/txn_p99_us"},
	{"bench.trace_overhead", "ratio", "lower", "host", "bench", "traced over untraced op-stream host time, minus 1"},
	{"kvstore.get_host_ns", "ns", "lower", "host", "kvstore", "host time per kvstore.Get span (0 off the kv workloads)"},
	{"kvstore.vself_us", "us", "lower", "virtual", "kvstore", "virtual self time per kvstore.Put: span minus its protocol calls"},
	{"kvstore.checkpoints", "count", "lower", "count", "kvstore", "checkpoints taken in the op stream"},
	{"shard.get_host_ns", "ns", "lower", "host", "shard", "host time per Router.Get span (0 off shard-txn)"},
	{"shard.vself_us", "us", "lower", "virtual", "shard", "virtual self time per Router.Put/Txn: span minus its txn steps"},
	{"shard.gets", "count", "higher", "count", "shard", "Router.Get calls in the op stream: base of shard.miss_ratio"},
	{"shard.miss_ratio", "ratio", "lower", "count", "shard", "Router.Get misses over shard.gets"},
	{"shard.cross_shard_ratio", "ratio", "lower", "count", "shard", "committed txns spanning more than one shard over txn.commits"},
	{"protocol.write_us_p50", "us", "lower", "virtual", "protocol", "median replicated Write call made by kvstore (0 off the kv workloads)"},
	{"protocol.write_us_p99", "us", "lower", "virtual", "protocol", "p99 replicated Write call made by kvstore (0 off the kv workloads)"},
	{"protocol.calls_per_op", "count", "lower", "count", "protocol", "group operations issued per client op (on shard-txn, by the shard groups; the facade does not expose the commit-log group)"},
	{"protocol.retried", "count", "lower", "count", "protocol", "timed-out group operations re-issued in the op stream"},
	{"txn.commits", "count", "higher", "count", "txn", "committed Router.Txn calls: base of the txn ratios"},
	{"txn.abort_ratio", "ratio", "lower", "count", "txn", "aborted over attempted Router.Txn calls"},
	{"txn.span_mean", "count", "lower", "count", "txn", "keys per Router.Txn"},
	{"txn.lock_us", "us", "lower", "virtual", "txn", "mean virtual time per txn in 2PC lock steps"},
	{"txn.append_us", "us", "lower", "virtual", "txn", "mean virtual time per txn in 2PC append steps"},
	{"txn.log_commit_us", "us", "lower", "virtual", "txn", "mean virtual time per txn writing the commit record"},
	{"txn.execute_us", "us", "lower", "virtual", "txn", "mean virtual time per txn in 2PC execute steps"},
	{"txn.unlock_us", "us", "lower", "virtual", "txn", "mean virtual time per txn in 2PC unlock steps"},
	{"txn.log_truncate_us", "us", "lower", "virtual", "txn", "mean virtual time per txn truncating the commit record"},
	{"rdma.msgs_per_op", "count", "lower", "count", "rdma", "fabric messages per client op"},
	{"rdma.wire_bytes_per_op", "B", "lower", "count", "rdma", "bytes on the wire per client op"},
	{"rdma.cqes_per_op", "count", "lower", "count", "rdma", "completion-queue entries per client op"},
	{"rdma.wqes_per_op", "count", "lower", "count", "rdma", "work requests executed by NICs per client op"},
	{"nvm.writes_per_op", "count", "lower", "count", "nvm", "device writes per client op"},
	{"nvm.flushes_per_op", "count", "lower", "count", "nvm", "device flushes per client op"},
	{"cpusim.ctx_switches_per_op", "count", "lower", "count", "cpusim", "replica CPU context switches per client op"},
	{"cpusim.wakes_per_op", "count", "lower", "count", "cpusim", "replica process wake-ups per client op"},
	{"cpusim.utilization", "ratio", "lower", "virtual", "cpusim", "mean busy fraction of replica server cores"},
	{"sim.events_per_op", "count", "lower", "count", "sim", "kernel events executed per client op"},
	{"sim.host_ns_per_event", "ns", "lower", "host", "sim", "op-stream host time per kernel event, median over untraced rounds"},
	{"sim.pending_max", "count", "lower", "count", "sim", "largest kernel event queue seen after an op"},
	{"sim.fast_dispatch_ratio", "ratio", "higher", "count", "sim", "fiber dispatches taking the direct fast path over all dispatches"},
	{"sim.fiber_starts_per_op", "count", "lower", "count", "sim", "fiber starts per client op"},
	{"runtime.allocs_per_op", "count", "lower", "host", "runtime", "Go heap allocations per client op, median over untraced rounds"},
	{"runtime.alloc_bytes_per_op", "B", "lower", "host", "runtime", "Go heap bytes allocated per client op, median over untraced rounds"},
	{"runtime.gc_cycles", "count", "lower", "host", "runtime", "GC cycles during the op stream, median over untraced rounds"},
}

func init() {
	for _, l := range layers {
		perLayerDefs = append(perLayerDefs, metricDef{
			l + ".host_share", "%", "lower", "host", l,
			"share of op-stream CPU profile samples whose innermost repo frame is in " + l,
		})
	}
}

type metricValue struct {
	def   metricDef
	value float64
}

// collect pairs every def with its value, failing on a missing one.
func collect(defs []metricDef, vals map[string]float64) ([]metricValue, error) {
	out := make([]metricValue, 0, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", d.name)
		}
		out = append(out, metricValue{d, v})
	}
	return out, nil
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// pooled concatenates one latency series across rounds.
func pooled(rs []*round, f func(*round) []int64) []int64 {
	var out []int64
	for _, r := range rs {
		out = append(out, f(r)...)
	}
	return out
}

// virtualMetrics are the end-to-end metrics that are exact per seed,
// pooled over one round of each deployment.
func virtualMetrics(nOps int, rs []*round) ([]metricValue, error) {
	write, err := summarize("put latency", pooled(rs, func(r *round) []int64 { return r.writeLat }))
	if err != nil {
		return nil, err
	}
	txn, err := summarize("txn latency", pooled(rs, (*round).txnSamples))
	if err != nil {
		return nil, err
	}
	var vDur int64
	for _, r := range rs {
		vDur += r.vDur
	}
	vals := map[string]float64{
		"write_p50_us": us(write.p50),
		"write_p99_us": us(write.p99),
		"txn_p50_us":   us(txn.p50),
		"txn_p99_us":   us(txn.p99),
		"vops_per_ms":  float64(len(rs)*nOps) / (float64(vDur) / 1e6),
	}
	var out []metricValue
	for _, d := range endToEndDefs {
		if v, ok := vals[d.name]; ok {
			out = append(out, metricValue{d, v})
		}
	}
	return out, nil
}

func endToEndMetrics(nOps int, refs, plain []*round) ([]metricValue, error) {
	vm, err := virtualMetrics(nOps, refs)
	if err != nil {
		return nil, err
	}
	vals := make(map[string]float64)
	for _, m := range vm {
		vals[m.def.name] = m.value
	}
	vals["sim_ops_per_s"] = medianOf(plain, func(r *round) float64 { return float64(nOps) / r.opsHost.Seconds() })
	vals["setup_s"] = medianOf(plain, func(r *round) float64 { return r.setup.Seconds() })
	if vals["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}
	return collect(endToEndDefs, vals)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func meanNs(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s int64
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

func medianOf(rs []*round, f func(*round) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

// layerMetrics are the per-layer metrics of a traced run. Counts pool the
// first round of each deployment (every later round agrees exactly), host
// timings and runtime statistics are medians over the untraced rounds,
// span metrics pool the first traced round of each deployment, and host
// shares pool the CPU profiles of all traced rounds.
func layerMetrics(fam family, refs, plain, traced []*round, st spanStats, failRatio float64) ([]metricValue, error) {
	nOps := int64(len(fam.ins[0].ops))
	n := int64(len(refs)) * nOps
	var d counts
	var util float64
	pendingMax := 0
	for _, r := range refs {
		d = d.add(r.d)
		util += r.util / float64(len(refs))
		pendingMax = max(pendingMax, r.pendingMax)
	}
	vals := map[string]float64{
		"op_fail_ratio":              failRatio,
		"bench.write_samples":        float64(len(pooled(refs, func(r *round) []int64 { return r.writeLat }))),
		"bench.txn_samples":          float64(len(pooled(refs, (*round).txnSamples))),
		"kvstore.checkpoints":        float64(d[cCheckpoints]),
		"shard.gets":                 float64(d[cGets]),
		"shard.miss_ratio":           ratio(d[cMisses], d[cGets]),
		"shard.cross_shard_ratio":    ratio(d[cCross], d[cCommits]),
		"protocol.calls_per_op":      ratio(d[cProtoIssued], n),
		"protocol.retried":           float64(d[cProtoRetried]),
		"txn.commits":                float64(d[cCommits]),
		"txn.abort_ratio":            ratio(d[cAborts], d[cCommits]+d[cAborts]),
		"rdma.msgs_per_op":           ratio(d[cMsgs], n),
		"rdma.wire_bytes_per_op":     ratio(d[cWireBytes], n),
		"rdma.cqes_per_op":           ratio(d[cCQEs], n),
		"rdma.wqes_per_op":           ratio(d[cWQEs], n),
		"nvm.writes_per_op":          ratio(d[cNVMWrites], n),
		"nvm.flushes_per_op":         ratio(d[cNVMFlushes], n),
		"cpusim.ctx_switches_per_op": ratio(d[cCtxSwitches], n),
		"cpusim.wakes_per_op":        ratio(d[cWakes], n),
		"cpusim.utilization":         util,
		"sim.events_per_op":          ratio(d[cEvents], n),
		"sim.pending_max":            float64(pendingMax),
		"sim.fast_dispatch_ratio":    ratio(d[cFast], d[cFast]+d[cSlow]),
		"sim.fiber_starts_per_op":    ratio(d[cFiberStarts], n),
		"sim.host_ns_per_event": medianOf(plain, func(r *round) float64 {
			return float64(r.opsHost.Nanoseconds()) / float64(r.d[cEvents])
		}),
		"runtime.allocs_per_op":      medianOf(plain, func(r *round) float64 { return float64(r.mallocs) / float64(nOps) }),
		"runtime.alloc_bytes_per_op": medianOf(plain, func(r *round) float64 { return float64(r.allocBytes) / float64(nOps) }),
		"runtime.gc_cycles":          medianOf(plain, func(r *round) float64 { return float64(r.gcs) }),
		"bench.trace_overhead": medianOf(traced, func(r *round) float64 { return r.opsHost.Seconds() })/
			medianOf(plain, func(r *round) float64 { return r.opsHost.Seconds() }) - 1,
		"kvstore.get_host_ns": meanNs(st.opHost["kvstore.Get"]),
		"shard.get_host_ns":   meanNs(st.opHost["shard.Get"]),
		"kvstore.vself_us":    meanNs(st.opSelf["kvstore.Put"]) / 1e3,
		"shard.vself_us":      meanNs(append(append([]int64(nil), st.opSelf["shard.Put"]...), st.opSelf["shard.Txn"]...)) / 1e3,
	}

	var txns, keys int64
	for _, in := range fam.ins {
		for _, o := range in.ops {
			if o.kind == opTxn {
				txns++
				keys += int64(o.n)
			}
		}
	}
	vals["txn.span_mean"] = ratio(keys, txns)
	for _, step := range []string{"lock", "append", "log-commit", "execute", "unlock", "log-truncate"} {
		key := "txn." + strings.ReplaceAll(step, "-", "_") + "_us"
		vals[key] = ratio(st.txnSteps["txn."+step], int64(st.txns)) / 1e3
	}
	vals["protocol.write_us_p50"], vals["protocol.write_us_p99"] = 0, 0
	if ws := st.children["protocol.Write"]; len(ws) > 0 {
		l, err := summarize("protocol.Write latency", ws)
		if err != nil {
			return nil, err
		}
		vals["protocol.write_us_p50"], vals["protocol.write_us_p99"] = us(l.p50), us(l.p99)
	}

	samples := map[string]int64{}
	var total int64
	for _, r := range traced {
		for l, c := range r.profile {
			samples[l] += c
			total += c
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("the CPU profile of the traced rounds holds no samples")
	}
	for _, l := range layers {
		vals[l+".host_share"] = 100 * float64(samples[l]) / float64(total)
	}
	return collect(perLayerDefs, vals)
}
