package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"hyperloop/internal/nvm"
	"hyperloop/internal/sim"
	"hyperloop/internal/txn"
)

func TestQuantileNearestRank(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	if v, beyond := quantile(s, 0.5); v != 500 || beyond != 500 {
		t.Fatalf("p50 = %d (%d beyond), want 500 (500 beyond)", v, beyond)
	}
	if v, beyond := quantile(s, 0.99); v != 990 || beyond != 10 {
		t.Fatalf("p99 = %d (%d beyond), want 990 (10 beyond)", v, beyond)
	}
	if v, beyond := quantile(s[:1], 0.99); v != 1 || beyond != 0 {
		t.Fatalf("p99 of one sample = %d (%d beyond)", v, beyond)
	}
}

func TestSummarizeNeedsTenBeyondP99(t *testing.T) {
	ns := make([]int64, 1000)
	for i := range ns {
		ns[i] = int64(len(ns) - i) // unsorted input
	}
	l, err := summarize("x", ns)
	if err != nil {
		t.Fatal(err)
	}
	if l.samples != 1000 || l.p50 != 500 || l.p99 != 990 {
		t.Fatalf("summary %+v", l)
	}
	if _, err := summarize("x", ns[:999]); err == nil {
		t.Fatal("999 samples leave 9 beyond p99; want an error")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
}

func TestAttributeInnermostRepoFrame(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "hyperloop/internal/nvm.(*Device).Write", "hyperloop/internal/rdma.(*QP).execute"}, "nvm"},
		{[]string{"runtime.mallocgc", "hyperloop/internal/ring.(*Ring[...]).Push", "hyperloop/internal/rdma.(*QP).post"}, "rdma"},
		{[]string{"hyperloop/internal/naive.(*Group).handle.func1"}, "protocol"},
		{[]string{"hyperloop/internal/hyperloop.(*Group).Write"}, "protocol"},
		{[]string{"hyperloop/internal/wal.Encode", "hyperloop/internal/kvstore.(*DB).Put"}, "txn"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"main.(*round).do", "hyperloop.(*Cluster).Run.func1"}, "runtime"},
		{nil, "runtime"},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestProfileLayersDecodesRuntimeProfile profiles copies into an nvm
// device and checks the decoder resolves samples to nvm. It asks for some
// nvm samples, not most: under the race detector most samples land in
// its runtime, which has no repo frame.
func TestProfileLayersDecodesRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	dev := nvm.NewDevice("t", 1<<20)
	data := make([]byte, 1<<20)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		if err := dev.Write(0, data); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	got, err := profileLayers(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got["nvm"] == 0 {
		t.Fatalf("samples %v: want some charged to nvm", got)
	}
	if _, err := profileLayers(buf.Bytes()[:len(buf.Bytes())/2]); err == nil {
		t.Fatal("a truncated profile decoded without error")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := span{VStart: 0, VEnd: 100}
	kids := []span{
		{VStart: 10, VEnd: 30},
		{VStart: 20, VEnd: 50},  // overlaps the first: [10,50] covered once
		{VStart: 90, VEnd: 120}, // clipped to [90,100]
		{VStart: -5, VEnd: 5},   // clipped to [0,5]
		{VStart: 60, VEnd: 60},  // empty
	}
	if got := selfTime(parent, kids); got != 45 {
		t.Fatalf("self time = %d, want 45", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children = %d, want 100", got)
	}
}

func TestAnalyzeChecksTxnStepsTileLatency(t *testing.T) {
	spans := []span{
		{Op: 7, Parent: -1, Name: "shard.Txn", VStart: 100, VEnd: 160},
		{Op: 7, Parent: 0, Name: "txn.lock", VStart: 100, VEnd: 110},
		{Op: 7, Parent: 0, Name: "txn.append", VStart: 110, VEnd: 160},
	}
	st, err := analyze(spans)
	if err != nil {
		t.Fatal(err)
	}
	if st.txns != 1 || st.txnSteps["txn.lock"] != 10 || st.txnSteps["txn.append"] != 50 || st.opSelf["shard.Txn"][0] != 0 {
		t.Fatalf("stats %+v", st)
	}
	spans[2].VEnd = 150
	if _, err := analyze(spans); err == nil {
		t.Fatal("steps short of the txn latency passed")
	}
}

// TestTracerStepsChain drives the step hook from a fiber: each step spans
// from the previous step's end, the first from the op's start.
func TestTracerStepsChain(t *testing.T) {
	k := sim.NewKernel(1)
	tr := newTracer()
	tr.k = k
	k.Spawn("t", func(f *sim.Fiber) {
		f.Sleep(5)
		op := tr.begin(3, "shard.Txn")
		f.Sleep(10)
		_ = tr.step(txn.StepLock, 0)
		f.Sleep(7)
		_ = tr.step(txn.StepAppend, 0)
		tr.end(op)
		if c := tr.child("protocol.Write"); c != -1 {
			t.Errorf("child outside an op = %d, want -1", c)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := [][2]int64{{5, 22}, {5, 15}, {15, 22}}
	if len(tr.spans) != len(want) {
		t.Fatalf("%d spans", len(tr.spans))
	}
	for i, w := range want {
		s := tr.spans[i]
		if s.VStart != w[0] || s.VEnd != w[1] || s.Op != 3 {
			t.Errorf("span %d = %+v, want [%d,%d] op 3", i, s, w[0], w[1])
		}
	}
}

func TestInputsAreASeedFunction(t *testing.T) {
	for _, gen := range []func(uint64) *inputs{genKV, genShard} {
		a, b, c := gen(1), gen(1), gen(2)
		if !slices.Equal(a.ops, b.ops) || !bytes.Equal(a.values, b.values) {
			t.Fatal("same seed, different inputs")
		}
		if slices.Equal(a.ops, c.ops) {
			t.Fatal("different seeds, same ops")
		}
	}
	for _, o := range genShard(3).ops {
		if o.kind == opTxn && (o.n < 2 || o.n > 4 || hasDup(o.key[:o.n])) {
			t.Fatalf("txn op %+v: want 2-4 distinct keys", o)
		}
	}
}

func hasDup(keys []int32) bool {
	for i := range keys {
		if slices.Contains(keys[:i], keys[i]) {
			return true
		}
	}
	return false
}

// benchmarkFile is the BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		if !validName(d.name) || seen[d.name] {
			t.Errorf("metric name %q invalid or repeated", d.name)
		}
		seen[d.name] = true
	}
	if len(bf.EndToEnd) != len(endToEndDefs) || len(bf.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, code %d+%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEndDefs), len(perLayerDefs))
	}
	for i, m := range bf.EndToEnd {
		d := endToEndDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, code %+v", i, m, d)
		}
	}
	for i, m := range bf.PerLayer {
		d := perLayerDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, code %+v", i, m, d)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || !validName(w.Name) {
			t.Errorf("workload %d = %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	if validName("a b") || validName("") || validName("_x") || !validName("rdma.msgs_per_op") {
		t.Error("validName accepts or rejects the wrong names")
	}
}

// TestTracedRunReportsEveryLayerMetric runs kv-chain traced for one
// second: the run must pass its checks, report every per-layer metric,
// and its host shares must sum to 100%.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	var out, errb bytes.Buffer
	spans := t.TempDir() + "/spans.jsonl"
	code := run([]string{"--workload", "kv-chain", "--seed", "5", "--seconds", "1", "--trace", "1", "--spans", spans}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s\n%s", code, errb.String(), out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 5*kvOps {
		t.Fatalf("result %+v", res)
	}
	var share float64
	for _, d := range perLayerDefs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("metric %s missing or with unit %q", d.name, m.Unit)
		}
		if strings.HasSuffix(d.name, ".host_share") {
			share += m.Value
		}
	}
	if math.Abs(share-100) > 1e-6 {
		t.Fatalf("host shares sum to %v%%", share)
	}
	if len(res.Metrics) != len(perLayerDefs) {
		t.Fatalf("%d metrics, want %d", len(res.Metrics), len(perLayerDefs))
	}
	if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
		t.Fatalf("spans file: %v", err)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "kv-chain", "--trace", "2"},
		{"--workload", "kv-chain", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("run(%v) = %d, stdout %q", args, code, out.String())
		}
	}
}

func TestReadmeListsEveryMetricAndWorkload(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		if !strings.Contains(doc, "`"+d.name+"`") {
			t.Errorf("README.md does not document %s", d.name)
		}
	}
	for _, w := range workloads {
		if !strings.Contains(doc, "| `"+w.name+"` |") {
			t.Errorf("README.md does not document workload %s", w.name)
		}
	}
}
