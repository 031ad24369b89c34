package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"hyperloop/internal/sim"
)

// round is one deployment built from the seed, preloaded, and driven
// through the whole op stream. Everything but the host timings and
// runtime statistics is a pure function of the seed and must repeat
// exactly across rounds.
type round struct {
	setup   time.Duration // build the deployment and preload every key
	opsHost time.Duration // the op stream, host wall time

	// Virtual results.
	vDur       int64   // op stream, virtual ns
	writeLat   []int64 // per successful put, virtual ns
	txnLat     []int64 // per committed txn, virtual ns
	d          counts  // counter deltas over the op stream
	pendingMax int     // largest kernel queue seen after an op
	util       float64 // mean replica CPU utilization at the end

	failed   int // failed ops, wrong reads, read-back and replica mismatches
	firstErr error

	mallocs, allocBytes, gcs uint64 // Go runtime deltas over the op stream

	spans   []span           // traced rounds only
	profile map[string]int64 // traced rounds only: CPU samples per layer
}

// txnSamples are the latencies behind txn_p50_us/txn_p99_us: committed
// Router.Txn calls, or on the kv workloads, where every kvstore.Put is a
// one-record txn.Store transaction, the puts.
func (r *round) txnSamples() []int64 {
	if len(r.txnLat) == 0 {
		return r.writeLat
	}
	return r.txnLat
}

func (r *round) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// runRound builds w's deployment for seed and drives in through it. The
// traced form records spans and a CPU profile of the op stream.
func runRound(w *workload, seed uint64, in *inputs, traced bool) (*round, error) {
	r := &round{}
	runtime.GC()
	start := time.Now()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	t, err := w.build(seed, tr)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", w.name, err)
	}
	defer t.close()
	shadow := make([]int32, in.keys) // value index last acknowledged per key
	var prof bytes.Buffer
	err = t.run(func(f *sim.Fiber) error {
		for key := int32(0); int(key) < in.keys; key++ {
			if err := t.put(f, key, in.value(key)); err != nil {
				return fmt.Errorf("preload key %d: %w", key, err)
			}
			shadow[key] = key
		}
		r.setup = time.Since(start)

		before := t.counts()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		if traced {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return err
			}
			tr.epoch = time.Now()
		}
		v0, h0 := f.Now(), time.Now()
		for i := range in.ops {
			r.do(f, w, t, in, i, shadow, tr)
		}
		r.opsHost = time.Since(h0)
		r.vDur = int64(f.Now().Sub(v0))
		if traced {
			pprof.StopCPUProfile()
		}
		runtime.ReadMemStats(&ms1)
		r.mallocs = ms1.Mallocs - ms0.Mallocs
		r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		r.gcs = uint64(ms1.NumGC - ms0.NumGC)
		r.d = t.counts().sub(before)
		r.util = t.utilization()
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Output check, untimed: every key reads back as its last
	// acknowledged value, and every replica's durable image equals the
	// client's mirror.
	for key, vi := range shadow {
		v, err := t.get(int32(key))
		if err != nil {
			r.fail(fmt.Errorf("read back key %d: %w", key, err))
		} else if !bytes.Equal(v, in.value(vi)) {
			r.fail(fmt.Errorf("read back key %d: wrong value", key))
		}
	}
	bad, err := t.verifyReplicas()
	if err != nil {
		return nil, err
	}
	for i := 0; i < bad; i++ {
		r.fail(fmt.Errorf("%d replica durable images differ from the client mirror", bad))
	}
	if traced {
		r.spans = tr.spans
		if r.profile, err = profileLayers(prof.Bytes()); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// do runs op i, recording its virtual latency and checking reads against
// the shadow copy of acknowledged values.
func (r *round) do(f *sim.Fiber, w *workload, t target, in *inputs, i int, shadow []int32, tr *tracer) {
	o := &in.ops[i]
	s := -1
	if tr != nil {
		s = tr.begin(i, w.opSpan[o.kind])
	}
	t0 := f.Now()
	switch o.kind {
	case opRead:
		v, err := t.get(o.key[0])
		if err == nil && !bytes.Equal(v, in.value(shadow[o.key[0]])) {
			err = fmt.Errorf("op %d: read of key %d returned a stale or wrong value", i, o.key[0])
		}
		if err != nil {
			r.fail(err)
		}
	case opPut:
		if err := t.put(f, o.key[0], in.value(o.val)); err != nil {
			r.fail(fmt.Errorf("op %d: put: %w", i, err))
			break
		}
		r.writeLat = append(r.writeLat, int64(f.Now().Sub(t0)))
		shadow[o.key[0]] = o.val
	case opTxn:
		if err := t.txn(f, o, in); err != nil {
			r.fail(fmt.Errorf("op %d: txn: %w", i, err))
			break
		}
		r.txnLat = append(r.txnLat, int64(f.Now().Sub(t0)))
		for j := 0; j < int(o.n); j++ {
			shadow[o.key[j]] = o.val + int32(j)
		}
	}
	if s >= 0 {
		tr.end(s)
	}
	if p := f.Kernel().Pending(); p > r.pendingMax {
		r.pendingMax = p
	}
}

// sameOutcome reports how b's virtual results differ from a's, or nil.
func sameOutcome(a, b *round) error {
	switch {
	case a.d != b.d:
		return fmt.Errorf("counters %+v, then %+v", a.d, b.d)
	case a.vDur != b.vDur:
		return fmt.Errorf("virtual duration %dns, then %dns", a.vDur, b.vDur)
	case !slices.Equal(a.writeLat, b.writeLat):
		return fmt.Errorf("put latencies differ")
	case !slices.Equal(a.txnLat, b.txnLat):
		return fmt.Errorf("txn latencies differ")
	case a.pendingMax != b.pendingMax:
		return fmt.Errorf("pending max %d, then %d", a.pendingMax, b.pendingMax)
	case a.util != b.util:
		return fmt.Errorf("utilization %v, then %v", a.util, b.util)
	case a.failed != b.failed:
		return fmt.Errorf("%d failed ops, then %d", a.failed, b.failed)
	}
	return nil
}
