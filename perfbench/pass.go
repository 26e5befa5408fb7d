package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"dpr"
	"dpr/internal/core"
	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/rng"
)

// maxPasses is the pass budget of one computation (the library's
// default).
const maxPasses = 100_000

// passOp is one pass-engine computation.
type passOp struct {
	place, newEngine, converge, cpu time.Duration
	rssMB                           float64 // resident-set peak of set-up and run
	res                             core.Result
}

// setupPass places g's documents on p.peers peers and builds the pass
// engine, exactly as dpr.ComputePageRank does, timing each step.
func setupPass(g *graph.Graph, p params, seed uint64, workers int) (e *core.PassEngine, place, newEngine time.Duration, err error) {
	t0 := time.Now()
	net := p2p.NewNetwork(p.peers)
	net.AssignRandom(g, rng.New(seed))
	place = time.Since(t0)
	t1 := time.Now()
	e, err = core.NewPassEngine(g, net, nil, core.Options{
		Damping: damping, Epsilon: epsilon, MaxPass: maxPasses, Workers: workers,
	})
	newEngine = time.Since(t1)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("new pass engine: %w", err)
	}
	return e, place, newEngine, nil
}

// runPassOnce sets up and runs one computation to convergence.
func runPassOnce(g *graph.Graph, p params, seed uint64, workers int) (passOp, error) {
	var op passOp
	if err := freshStart(); err != nil {
		return op, err
	}
	e, place, newEngine, err := setupPass(g, p, seed, workers)
	if err != nil {
		return op, err
	}
	op.place, op.newEngine = place, newEngine
	c0 := cpuTime()
	r0 := time.Now()
	op.res = e.Run()
	op.converge = time.Since(r0)
	op.cpu = cpuTime() - c0
	if !op.res.Converged {
		return op, fmt.Errorf("pass engine: no convergence in %d passes", op.res.Passes)
	}
	op.rssMB, err = peakRSSMB()
	return op, err
}

// sameRanks reports whether two rank vectors are bit-identical.
func sameRanks(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d ranks vs %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("rank of doc %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}

// checkPassErrors checks a computation's ranks against the reference.
func checkPassErrors(res core.Result, ref []float64) (avg, p99 float64, err error) {
	if avg, p99, err = relErrors(res.Ranks, ref, nil); err != nil {
		return 0, 0, err
	}
	return avg, p99, checkErrors(avg, p99)
}

// passRef is the first computation of a run; every later one must
// repeat it exactly.
type passRef struct {
	passes int
	msgs   int64
	ranks  []float64
}

func (r *passRef) check(res core.Result) error {
	if r.ranks == nil {
		r.passes, r.msgs = res.Passes, res.Counters.InterPeerMsgs
		r.ranks = append([]float64(nil), res.Ranks...)
		return nil
	}
	if res.Passes != r.passes || res.Counters.InterPeerMsgs != r.msgs {
		return fmt.Errorf("pass engine not deterministic: %d passes/%d msgs, first run %d/%d",
			res.Passes, res.Counters.InterPeerMsgs, r.passes, r.msgs)
	}
	if err := sameRanks(res.Ranks, r.ranks); err != nil {
		return fmt.Errorf("pass engine not deterministic: %w", err)
	}
	return nil
}

// runPass measures pass-1m: the paper's pass simulation at paper scale
// with one worker per CPU. Computations repeat on one graph and
// placement; the engine is deterministic, so every one must give the
// same passes, messages and ranks.
func runPass(p params, seed uint64, budget time.Duration, trace bool, t *tally) (metrics, error) {
	g, err := dpr.GenerateWebGraph(p.docs, seed)
	if err != nil {
		return nil, err
	}
	ref, err := dpr.CentralizedPageRank(g, damping)
	if err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()
	if trace {
		return tracePass(g, ref, p, seed, workers, budget, t)
	}
	var (
		first                  passRef
		setup, conv, cpu, rss  []float64
		errAvg, errP99, msgsPD float64
	)
	start := time.Now()
	for i := 0; i <= p.minOps || time.Since(start) < budget; i++ {
		op, err := runPassOnce(g, p, seed, workers)
		if err == nil {
			if first.ranks == nil {
				errAvg, errP99, err = checkPassErrors(op.res, ref)
				msgsPD = float64(op.res.Counters.InterPeerMsgs) / float64(p.docs)
			}
			if err == nil {
				err = first.check(op.res)
			}
		}
		if !t.check(err) {
			continue
		}
		if i == 0 {
			continue // warm-up: checked, not measured
		}
		setup = append(setup, (op.place + op.newEngine).Seconds())
		logOp(i, "setup %.4fs converge %.4fs cpu %.4fs passes %d msgs %d", (op.place + op.newEngine).Seconds(),
			op.converge.Seconds(), op.cpu.Seconds(), op.res.Passes, op.res.Counters.InterPeerMsgs)
		conv = append(conv, op.converge.Seconds())
		cpu = append(cpu, op.cpu.Seconds())
		rss = append(rss, op.rssMB)
	}
	if len(conv) == 0 {
		return nil, fmt.Errorf("every computation failed")
	}
	return metrics{
		"setup_s":      median(setup),
		"converge_s":   median(conv),
		"cpu_s":        median(cpu),
		"msgs_per_doc": msgsPD,
		"err_avg":      errAvg,
		"err_p99":      errP99,
		"peak_rss_mb":  median(rss),
	}, nil
}

// tracePass runs untraced computations (the overhead baseline), one
// with a single worker (the speed-up baseline, which must give
// bit-identical ranks), and one traced computation that drives
// RunPass itself, recording a span per pass under a CPU profile.
func tracePass(g *graph.Graph, ref []float64, p params, seed uint64, workers int, budget time.Duration, t *tally) (metrics, error) {
	var (
		first passRef
		plain []float64
	)
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < budget/2; i++ {
		op, err := runPassOnce(g, p, seed, workers)
		if err == nil && first.ranks == nil {
			_, _, err = checkPassErrors(op.res, ref)
		}
		if err == nil {
			err = first.check(op.res)
		}
		if t.check(err) {
			plain = append(plain, op.converge.Seconds())
		}
	}
	if len(plain) == 0 {
		return nil, fmt.Errorf("every computation failed")
	}
	m := metrics{}

	one, err := runPassOnce(g, p, seed, 1)
	if err == nil {
		err = first.check(one.res)
	}
	if t.check(err) {
		m["core.pass.speedup_vs_1"] = one.converge.Seconds() / median(plain)
	}

	if err := freshStart(); err != nil {
		return nil, err
	}
	e, place, newEngine, err := setupPass(g, p, seed, workers)
	if !t.check(err) {
		return nil, err
	}
	m["p2p.place_s"] = place.Seconds()
	m["core.new_engine_s"] = newEngine.Seconds()
	prof := newProfiler()
	rt0 := readRuntime()
	if err := prof.start(); err != nil {
		return nil, err
	}
	var (
		wall, cpu, firstPass time.Duration
		passes, docs         int
		msgs                 int64
	)
	for i := 0; i < maxPasses; i++ {
		w0, c0 := time.Now(), cpuTime()
		st := e.RunPass()
		w, c := time.Since(w0), cpuTime()-c0
		if i == 0 {
			firstPass = w
		}
		wall += w
		cpu += c
		passes++
		docs += st.ProcessedDocs
		msgs += st.InterMsgs
		if e.Converged() {
			break
		}
	}
	if err := prof.stop(); err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	if !e.Converged() {
		err = fmt.Errorf("traced pass engine: no convergence in %d passes", passes)
	} else {
		err = first.check(core.Result{Ranks: e.Ranks(), Passes: e.Pass(), Counters: e.Counters()})
	}
	t.check(err)
	prof.report(m, float64(msgs))
	addRuntime(m, rt0, rt1, float64(msgs))
	m["core.passes"] = float64(passes)
	m["core.pass.ns_per_processed_doc"] = float64(wall.Nanoseconds()) / float64(docs)
	m["core.pass.ns_per_msg"] = float64(wall.Nanoseconds()) / float64(msgs)
	m["core.pass.ns_per_pass"] = float64(wall.Nanoseconds()) / float64(passes)
	m["core.pass.first_ms"] = firstPass.Seconds() * 1e3
	m["core.pass.cpu_per_wall"] = cpu.Seconds() / wall.Seconds()
	m["trace.overhead_frac"] = overhead(wall.Seconds(), median(plain))
	return m, nil
}
