// Command perfbench is the repository benchmark. It measures two systems:
// the modeled one, the replicated store in virtual time, and the
// simulator, the Go program in host time. See README.md for the
// workloads and every metric's unit, clock and layer.
//
// Usage:
//
//	perfbench --workload kv-chain --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The exit code is
// non-zero when an output or determinism check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"time"

	"hyperloop/internal/sim"
)

// workload is one input set the benchmark runs.
type workload struct {
	name   string
	gen    func(seed uint64) *inputs
	build  func(seed uint64, tr *tracer) (target, error)
	opSpan [3]string // op span name per opKind
}

// The workloads stress different layers, so an optimisation of one shows
// on one workload and leaves another unchanged (README.md gives more).
var workloads = []*workload{
	// The paper's headline datapath: replica CPUs off the critical path.
	{
		name:   "kv-chain",
		gen:    genKV,
		build:  func(seed uint64, tr *tracer) (target, error) { return buildKV(seed, false, tr) },
		opSpan: [3]string{"kvstore.Get", "kvstore.Put", ""},
	},
	// The same inputs, but replica handlers queue in cpusim behind the
	// co-located tenants: cpusim and the event heap dominate.
	{
		name:   "kv-naive",
		gen:    genKV,
		build:  func(seed uint64, tr *tracer) (target, error) { return buildKV(seed, true, tr) },
		opSpan: [3]string{"kvstore.Get", "kvstore.Put", ""},
	},
	// Cross-shard 2PC with the commit log over ~130 NICs: txn, rdma and
	// allocation work.
	{
		name:   "shard-txn",
		gen:    genShard,
		build:  buildShard,
		opSpan: [3]string{"shard.Get", "shard.Put", "shard.Txn"},
	},
}

// heldOutSeed derives the second seed every untraced run also reports,
// so a result tuned to one seed shows.
func heldOutSeed(seed uint64) uint64 { return seed ^ 0x9e3779b97f4a7c15 }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]mvalue `json:"metrics"`
}

type mvalue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: kv-chain | kv-naive | shard-txn")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 30, "how long the timed rounds run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	spansOut := fs.String("spans", "", "where a traced run writes its spans (default .bench_build/spans/<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: need --workload kv-chain|kv-naive|shard-txn, --seconds >= 1 and --trace 0|1")
		return 2
	}
	if *spansOut == "" {
		*spansOut = fmt.Sprintf(".bench_build/spans/%s-%d.jsonl", w.name, *seed)
	}
	res, err := bench(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *spansOut, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		if res == nil {
			return 1
		}
		res.Correct = false
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// deployments is how many independently seeded deployments a run cycles
// through. One deployment's virtual results vary by several percent from
// seed to seed (tenant load, key draws); pooling four narrows that.
const deployments = 4

// family is the deployments one seed stands for. The first deployment's
// seed is the seed itself; the others are drawn from it.
type family struct {
	seeds []uint64
	ins   []*inputs
}

func newFamily(w *workload, seed uint64) family {
	rng := sim.NewRNG(seed)
	var f family
	for i := 0; i < deployments; i++ {
		s := seed
		if i > 0 {
			s = rng.Uint64()
		}
		f.seeds = append(f.seeds, s)
		f.ins = append(f.ins, w.gen(s))
	}
	return f
}

// bench runs the warm-up round, the timed rounds and, untraced, the
// held-out seed, checking every round's output and that all rounds of a
// deployment agree exactly.
func bench(w *workload, seed uint64, budget time.Duration, traced bool, spansOut string, out io.Writer) (*result, error) {
	fam := newFamily(w, seed)
	nOps := len(fam.ins[0].ops)
	fmt.Fprintf(out, "perfbench %s seed %d: %d deployments x %d ops over %d keys, %d B values, trace %v\n",
		w.name, seed, deployments, nOps, fam.ins[0].keys, valueSize, traced)

	res := &result{Correct: true}
	var detErr error
	check := func(ref, r *round, what string) {
		res.Attempted += nOps
		res.Failed += r.failed
		if r.firstErr != nil {
			fmt.Fprintf(out, "  %s: %d failed, first: %v\n", what, r.failed, r.firstErr)
		}
		if ref != nil && detErr == nil {
			if err := sameOutcome(ref, r); err != nil {
				detErr = fmt.Errorf("determinism: %s differs from the deployment's first round: %w", what, err)
				res.Correct = false
			}
		}
	}

	// The warm-up round runs at GOMAXPROCS=2 and timed rounds at 1; the
	// first timed round repeats the warm-up's deployment, so the two must
	// agree exactly.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	refs := make([]*round, deployments)
	var err error
	if refs[0], err = runRound(w, fam.seeds[0], fam.ins[0], false); err != nil {
		return nil, err
	}
	check(nil, refs[0], "warm-up")
	runtime.GOMAXPROCS(1)

	// Timed rounds cycle through the deployments and stop on a whole
	// cycle, so each deployment weighs the same in the medians. A traced
	// run alternates untraced and traced cycles.
	var plain, tracedRounds []*round
	var spans []span // the last traced round's
	var st spanStats // the first traced round of each deployment
	minRounds := deployments
	if traced {
		minRounds *= 2
	}
	deadline := time.Now().Add(budget)
	for i := 0; i < minRounds || i%deployments != 0 || time.Now().Before(deadline); i++ {
		k := i % deployments
		tr := traced && (i/deployments)%2 == 1
		r, err := runRound(w, fam.seeds[k], fam.ins[k], tr)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "  round %d: deployment %d, traced %v, setup %.4fs, %.1f ops/s\n",
			i, k, tr, r.setup.Seconds(), float64(nOps)/r.opsHost.Seconds())
		what := fmt.Sprintf("round %d", i)
		if refs[k] == nil {
			refs[k] = r
			check(nil, r, what)
		} else {
			check(refs[k], r, what)
		}
		if !tr {
			plain = append(plain, r)
			continue
		}
		if len(tracedRounds) < deployments {
			rs, err := analyze(r.spans)
			if err != nil {
				return res, err
			}
			st.add(rs)
		}
		spans, r.spans = r.spans, nil
		tracedRounds = append(tracedRounds, r)
	}
	fmt.Fprintf(out, "  %d untraced and %d traced rounds, identical virtual results per deployment: %v\n",
		len(plain), len(tracedRounds), detErr == nil)

	var metrics []metricValue
	if traced {
		fails := float64(res.Failed) / float64(res.Attempted)
		metrics, err = layerMetrics(fam, refs, plain, tracedRounds, st, fails)
		if err == nil {
			err = writeSpans(spansOut, spans)
			fmt.Fprintf(out, "  spans of the last traced round: %s\n", spansOut)
		}
	} else {
		metrics, err = endToEndMetrics(nOps, refs, plain)
		if err == nil {
			err = reportHeldOut(w, seed, out, check)
		}
	}
	if err != nil {
		return res, err
	}
	res.Metrics = make(map[string]mvalue, len(metrics))
	fmt.Fprintf(out, "  %-28s %14s  %-6s %-8s %-9s %s\n", "metric", "value", "unit", "clock", "layer", "what")
	for _, m := range metrics {
		res.Metrics[m.def.name] = mvalue{Value: m.value, Unit: m.def.unit}
		fmt.Fprintf(out, "  %-28s %14.6g  %-6s %-8s %-9s %s\n", m.def.name, m.value, m.def.unit, m.def.clock, m.def.layer, m.def.desc)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	return res, detErr
}

// reportHeldOut runs the deployments of the held-out seed once each and
// prints their virtual metrics beside the main seed's.
func reportHeldOut(w *workload, seed uint64, out io.Writer, check func(ref, r *round, what string)) error {
	fam := newFamily(w, heldOutSeed(seed))
	var rs []*round
	for k, s := range fam.seeds {
		r, err := runRound(w, s, fam.ins[k], false)
		if err != nil {
			return err
		}
		check(nil, r, fmt.Sprintf("held-out deployment %d", k))
		rs = append(rs, r)
	}
	vm, err := virtualMetrics(len(fam.ins[0].ops), rs)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  held-out seed %d:", fam.seeds[0])
	for _, m := range vm {
		fmt.Fprintf(out, " %s=%.6g", m.def.name, m.value)
	}
	fmt.Fprintln(out)
	return nil
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	if ru.Maxrss <= 0 {
		return 0, errors.New("getrusage reports no peak RSS")
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
