package main

import (
	"fmt"
	"math"
	"net"
	"sync/atomic"
	"time"

	"dpr"
	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/telemetry"
	"dpr/internal/wire"
)

// wireTimeout bounds one computation's wait for quiescence; a run that
// misses it counts as a failed operation.
const wireTimeout = 60 * time.Second

// wireOp is one live-cluster computation.
type wireOp struct {
	setup, converge, cpu time.Duration
	rssMB                float64 // resident-set peak of set-up and run
	res                  wire.ClusterResult
	snap                 telemetry.Snapshot
}

// runWireOnce starts a fault-free cluster of p.peers TCP peers on
// loopback over g and runs it to quiescence. tr nil means the real TCP
// dialer. onRun, when non-nil, brackets the computation itself.
func runWireOnce(g *graph.Graph, p params, seed uint64, tr wire.Transport, onRun func(start bool) error) (wireOp, error) {
	var op wireOp
	if err := freshStart(); err != nil {
		return op, err
	}
	t0 := time.Now()
	c, err := wire.NewCluster(g, wire.ClusterConfig{
		Peers: p.peers, Damping: damping, Epsilon: epsilon, Seed: seed, Transport: tr,
	})
	if err != nil {
		return op, fmt.Errorf("new cluster: %w", err)
	}
	defer c.Close()
	op.setup = time.Since(t0)
	if onRun != nil {
		if err := onRun(true); err != nil {
			return op, err
		}
	}
	c0 := cpuTime()
	r0 := time.Now()
	op.res, err = c.Run(wireTimeout)
	op.converge = time.Since(r0)
	op.cpu = cpuTime() - c0
	if onRun != nil {
		if err := onRun(false); err != nil {
			return op, err
		}
	}
	if err != nil {
		return op, fmt.Errorf("cluster run: %w", err)
	}
	op.snap = c.TelemetrySnapshot()
	op.rssMB, err = peakRSSMB()
	return op, err
}

// checkWire verifies one computation: nothing dropped, every shipped
// unit of delta mass folded, and the ranks within the error bound.
func checkWire(res wire.ClusterResult, ref []float64) (avg, p99 float64, err error) {
	if res.Misdropped != 0 {
		return 0, 0, fmt.Errorf("wire: %d updates dropped with no owner", res.Misdropped)
	}
	if d := math.Abs(res.DeltaShipped - res.DeltaFolded); d > 1e-9*math.Max(1, math.Abs(res.DeltaShipped)) {
		return 0, 0, fmt.Errorf("wire: delta shipped %v != folded %v", res.DeltaShipped, res.DeltaFolded)
	}
	avg, p99, err = relErrors(res.Ranks, ref, nil)
	if err != nil {
		return 0, 0, fmt.Errorf("wire: %w", err)
	}
	if err := checkErrors(avg, p99); err != nil {
		return 0, 0, fmt.Errorf("wire: %w", err)
	}
	return avg, p99, nil
}

// runWire measures wire-100k: back-to-back computations on one graph
// and placement. One computation's wall clock follows the goroutine
// schedule, so a run reports medians over many.
func runWire(p params, seed uint64, budget time.Duration, trace bool, t *tally) (metrics, error) {
	g, err := dpr.GenerateWebGraph(p.docs, seed)
	if err != nil {
		return nil, err
	}
	ref, err := dpr.CentralizedPageRank(g, damping)
	if err != nil {
		return nil, err
	}
	if trace {
		return traceWire(g, ref, p, seed, budget, t)
	}
	var setup, conv, cpu, msgs, eavg, ep99, rss []float64
	start := time.Now()
	for i := 0; i <= p.minOps || time.Since(start) < budget; i++ {
		op, err := runWireOnce(g, p, seed, nil, nil)
		var avg, p99 float64
		if err == nil {
			avg, p99, err = checkWire(op.res, ref)
		}
		if !t.check(err) {
			continue
		}
		if i == 0 {
			continue // warm-up: checked, not measured
		}
		eavg, ep99 = append(eavg, avg), append(ep99, p99)
		logOp(i, "setup %.4fs converge %.4fs cpu %.4fs msgs %d err_avg %.3g", op.setup.Seconds(),
			op.converge.Seconds(), op.cpu.Seconds(), op.res.Messages, avg)
		setup = append(setup, op.setup.Seconds())
		conv = append(conv, op.converge.Seconds())
		cpu = append(cpu, op.cpu.Seconds())
		msgs = append(msgs, float64(op.res.Messages)/float64(p.docs))
		rss = append(rss, op.rssMB)
	}
	if len(conv) == 0 {
		return nil, fmt.Errorf("every computation failed")
	}
	return metrics{
		"setup_s":      median(setup),
		"converge_s":   median(conv),
		"cpu_s":        median(cpu),
		"msgs_per_doc": median(msgs),
		"err_avg":      median(eavg),
		"err_p99":      median(ep99),
		"peak_rss_mb":  median(rss),
	}, nil
}

// traceWire splits the budget between untraced computations (the
// baseline for the tracing overhead) and traced ones: CPU profile,
// counting transport, telemetry and runtime counters.
func traceWire(g *graph.Graph, ref []float64, p params, seed uint64, budget time.Duration, t *tally) (metrics, error) {
	var plain []float64
	start := time.Now()
	for i := 0; i < p.minOps || time.Since(start) < budget/2; i++ {
		op, err := runWireOnce(g, p, seed, nil, nil)
		if err == nil {
			_, _, err = checkWire(op.res, ref)
		}
		if t.check(err) {
			plain = append(plain, op.converge.Seconds())
			logOp(i, "untraced converge %.4fs", op.converge.Seconds())
		}
	}

	prof := newProfiler()
	ct := &countingTransport{inner: wire.TCPDialer()}
	var (
		traced          []float64
		updates, probes float64
		ops             int
		snap            telemetry.Snapshot
		rt0, rt1, acc   runtimeCounters
	)
	start = time.Now()
	for i := 0; i < p.minOps || time.Since(start) < budget/2; i++ {
		op, err := runWireOnce(g, p, seed, ct, func(begin bool) error {
			if begin {
				rt0 = readRuntime()
				return prof.start()
			}
			err := prof.stop()
			rt1 = readRuntime()
			return err
		})
		if err == nil {
			_, _, err = checkWire(op.res, ref)
		}
		if !t.check(err) {
			continue
		}
		acc = acc.plus(rt0, rt1)
		traced = append(traced, op.converge.Seconds())
		logOp(i, "traced converge %.4fs", op.converge.Seconds())
		updates += float64(op.res.Messages)
		probes += float64(op.res.Probes)
		snap = snap.Merge(op.snap)
		ops++
	}
	if len(plain) == 0 || ops == 0 {
		return nil, fmt.Errorf("every computation failed")
	}
	m := metrics{}
	prof.report(m, updates)
	addRuntime(m, runtimeCounters{}, acc, updates)
	m["runtime.gc.cycles"] /= float64(ops)
	n := float64(ops)
	m["wire.socket.bytes_per_update"] = float64(ct.bytes.Load()) / updates
	m["wire.socket.writes_per_update"] = float64(ct.writes.Load()) / updates
	m["wire.socket.reads_per_update"] = float64(ct.reads.Load()) / updates
	m["wire.socket.conns"] = float64(ct.conns.Load()) / n
	m["wire.socket.observer_conns"] = float64(ct.observerConns.Load()) / n
	if h, ok := histogram(snap, "wire_send_latency_seconds"); ok {
		m["wire.ack.rtt_p50_ms"] = histQuantile(h, 0.5) * 1e3
		m["wire.ack.rtt_p99_ms"] = histQuantile(h, 0.99) * 1e3
	}
	if sent := snap.CounterValue("wire_sent"); sent > 0 {
		m["p2p.coalesce.merge_ratio"] = float64(snap.CounterValue("wire_coalesced")) / float64(sent)
	}
	m["wire.credit_stalls"] = float64(snap.CounterValue("wire_credit_stalls")) / n
	m["wire.retries"] = float64(snap.CounterValue("wire_retries")) / n
	m["wire.dup_dropped"] = float64(snap.CounterValue("wire_dup_dropped")) / n
	m["wire.cluster.probes"] = probes / n
	m["trace.overhead_frac"] = overhead(median(traced), median(plain))
	return m, nil
}

// histogram finds a histogram in a telemetry snapshot.
func histogram(s telemetry.Snapshot, name string) (telemetry.HistPoint, bool) {
	for _, h := range s.Hists {
		if h.Name == name {
			return h, h.Count > 0 && len(h.Counts) == len(h.Bounds)+1
		}
	}
	return telemetry.HistPoint{}, false
}

// histQuantile estimates the q-quantile of a bucketed histogram by
// linear interpolation inside the bucket holding it. The overflow
// bucket reports its lower bound.
func histQuantile(h telemetry.HistPoint, q float64) float64 {
	rank := q * float64(h.Count)
	var seen float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			if i == len(h.Bounds) {
				return h.Bounds[i-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			return lo + (h.Bounds[i]-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// countingTransport wraps the peers' dialer and counts the traffic on
// every peer-to-peer connection, both directions: frames written by the
// dialing sender, acknowledgements read back. Observer connections
// (termination probes, rank collection) are only counted.
type countingTransport struct {
	inner                wire.Transport
	conns, observerConns atomic.Int64
	bytes, reads, writes atomic.Int64
}

func (t *countingTransport) Dial(from, to p2p.PeerID, addr string) (net.Conn, error) {
	c, err := t.inner.Dial(from, to, addr)
	if err != nil {
		return nil, err
	}
	if from == wire.Observer {
		t.observerConns.Add(1)
		return c, nil
	}
	t.conns.Add(1)
	return &countingConn{Conn: c, t: t}, nil
}

type countingConn struct {
	net.Conn
	t *countingTransport
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.t.reads.Add(1)
	c.t.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.t.writes.Add(1)
	c.t.bytes.Add(int64(n))
	return n, err
}
