package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hyperloop/internal/sim"
	"hyperloop/internal/txn"
)

// span is one timed call at a layer boundary. Op spans wrap a client
// operation; their children are the protocol calls a kvstore op makes
// (recorded by repShim) or the 2PC steps of a Router.Txn (recorded by
// the txn step hook). Virtual times are simulated ns, host times ns
// since the traced round started.
type span struct {
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index of the op span, -1 for an op span
	Name   string `json:"name"`
	VStart int64  `json:"vstart_ns"`
	VEnd   int64  `json:"vend_ns"`
	HStart int64  `json:"hstart_ns"`
	HEnd   int64  `json:"hend_ns"`
}

func (s span) vdur() int64 { return s.VEnd - s.VStart }

// tracer keeps one round's spans in memory; they are written out only
// when the benchmark ends.
type tracer struct {
	k     *sim.Kernel
	epoch time.Time
	spans []span
	open  int // index of the open op span, -1 when none
	mark  int // index of the span the next txn step starts after
}

// newTracer returns a tracer whose deployment sets k when it is built.
func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: -1}
}

func (t *tracer) host() int64 { return int64(time.Since(t.epoch)) }

// begin opens the span of client op number op and returns its index.
func (t *tracer) begin(op int, name string) int {
	t.spans = append(t.spans, span{Op: op, Parent: -1, Name: name, VStart: int64(t.k.Now()), HStart: t.host()})
	t.open = len(t.spans) - 1
	t.mark = t.open
	return t.open
}

// child opens a span under the open op span, or returns -1 when no op is
// open (the preload runs untraced).
func (t *tracer) child(name string) int {
	if t.open < 0 {
		return -1
	}
	t.spans = append(t.spans, span{Op: t.spans[t.open].Op, Parent: t.open, Name: name, VStart: int64(t.k.Now()), HStart: t.host()})
	return len(t.spans) - 1
}

// end closes span i; closing the op span closes the op.
func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	t.spans[i].VEnd = int64(t.k.Now())
	t.spans[i].HEnd = t.host()
	if i == t.open {
		t.open = -1
	}
}

// step is the Router's txn step hook: the hook fires after each 2PC step,
// so a step spans from the end of the previous step (or the op's start)
// to now.
func (t *tracer) step(s txn.Step, _ int) error {
	if t.open < 0 {
		return nil
	}
	prev := t.spans[t.mark]
	start, hstart := prev.VEnd, prev.HEnd
	if t.mark == t.open {
		start, hstart = prev.VStart, prev.HStart
	}
	t.spans = append(t.spans, span{
		Op: t.spans[t.open].Op, Parent: t.open, Name: "txn." + s.String(),
		VStart: start, VEnd: int64(t.k.Now()), HStart: hstart, HEnd: t.host(),
	})
	t.mark = len(t.spans) - 1
	return nil
}

// repShim is the txn.Replicator the traced kv rounds hand kvstore.Open:
// it records a protocol span around each replicated call and passes the
// call through unchanged, so traced and untraced rounds simulate the same
// events.
type repShim struct {
	txn.Replicator
	t *tracer
}

func (s repShim) Write(f *sim.Fiber, off, size int, durable bool) error {
	i := s.t.child("protocol.Write")
	err := s.Replicator.Write(f, off, size, durable)
	s.t.end(i)
	return err
}

func (s repShim) Memcpy(f *sim.Fiber, src, dst, size int, durable bool) error {
	i := s.t.child("protocol.Memcpy")
	err := s.Replicator.Memcpy(f, src, dst, size, durable)
	s.t.end(i)
	return err
}

func (s repShim) CAS(f *sim.Fiber, off int, old, new uint64, exec []bool) ([]uint64, error) {
	i := s.t.child("protocol.CAS")
	res, err := s.Replicator.CAS(f, off, old, new, exec)
	s.t.end(i)
	return res, err
}

func (s repShim) Flush(f *sim.Fiber, off, size int) error {
	i := s.t.child("protocol.Flush")
	err := s.Replicator.Flush(f, off, size)
	s.t.end(i)
	return err
}

// selfTime returns parent's virtual duration minus the part of it covered
// by the union of children's intervals (clipped to the parent).
func selfTime(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.VStart, parent.VStart), min(c.VEnd, parent.VEnd)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, reach int64 = 0, parent.VStart
	for _, x := range iv {
		lo := max(x[0], reach)
		if x[1] > lo {
			covered += x[1] - lo
			reach = x[1]
		}
	}
	return parent.vdur() - covered
}

// spanStats is what the traced metrics need from spans.
type spanStats struct {
	opSelf   map[string][]int64 // op span name -> virtual self time per op
	opHost   map[string][]int64 // op span name -> host duration per op
	children map[string][]int64 // child span name -> virtual durations
	txnSteps map[string]int64   // txn step name -> total virtual ns
	txns     int
}

func newSpanStats() spanStats {
	return spanStats{opSelf: map[string][]int64{}, opHost: map[string][]int64{}, children: map[string][]int64{}, txnSteps: map[string]int64{}}
}

// add pools o into st.
func (st *spanStats) add(o spanStats) {
	if st.opSelf == nil {
		*st = newSpanStats()
	}
	for k, v := range o.opSelf {
		st.opSelf[k] = append(st.opSelf[k], v...)
	}
	for k, v := range o.opHost {
		st.opHost[k] = append(st.opHost[k], v...)
	}
	for k, v := range o.children {
		st.children[k] = append(st.children[k], v...)
	}
	for k, v := range o.txnSteps {
		st.txnSteps[k] += v
	}
	st.txns += o.txns
}

// analyze derives self times and step totals from one round's spans, and
// checks that every committed transaction's steps tile its latency
// exactly.
func analyze(spans []span) (spanStats, error) {
	st := newSpanStats()
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
			st.children[s.Name] = append(st.children[s.Name], s.vdur())
		}
	}
	for i, s := range spans {
		if s.Parent >= 0 {
			continue
		}
		st.opSelf[s.Name] = append(st.opSelf[s.Name], selfTime(s, kids[i]))
		st.opHost[s.Name] = append(st.opHost[s.Name], s.HEnd-s.HStart)
		if s.Name != "shard.Txn" {
			continue
		}
		var sum int64
		for _, c := range kids[i] {
			sum += c.vdur()
			st.txnSteps[c.Name] += c.vdur()
		}
		if sum != s.vdur() {
			return st, fmt.Errorf("txn op %d: steps sum to %dns, latency %dns", s.Op, sum, s.vdur())
		}
		st.txns++
	}
	return st, nil
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
