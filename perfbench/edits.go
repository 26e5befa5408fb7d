package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"dpr"
	"dpr/internal/core"
	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/rng"
)

type editKind uint8

const (
	addDoc editKind = iota
	addLink
	removeLink
	removeDoc
)

// edit is one change to the topology. For addDoc, doc is the id the
// new document must receive and links its out-links.
type edit struct {
	kind    editKind
	doc, to graph.NodeID
	links   []graph.NodeID
}

// editStream is a seeded stream of valid edits against g, with the set
// of documents it removes.
type editStream struct {
	edits   []edit
	removed []bool // indexed by document id, including added documents
}

// makeEdits draws n edits: 20% AddDocument with 3 links, 40% AddLink,
// 30% RemoveLink of an existing link and 10% RemoveDocument. Links
// join live, distinct documents and AddLink only adds a new link, so
// every edit changes the topology and none can fail.
func makeEdits(g *graph.Graph, n int, seed uint64) editStream {
	r := rand.New(rand.NewPCG(seed, 0x65646974)) // "edit"
	adj := make([][]graph.NodeID, g.NumNodes())
	live := make([]graph.NodeID, g.NumNodes())
	pos := make([]int, g.NumNodes()) // index in live, -1 once removed
	for v := range adj {
		adj[v] = append([]graph.NodeID(nil), g.OutLinks(graph.NodeID(v))...)
		live[v] = graph.NodeID(v)
		pos[v] = v
	}
	pick := func() graph.NodeID { return live[r.IntN(len(live))] }
	has := func(from, to graph.NodeID) bool {
		for _, t := range adj[from] {
			if t == to {
				return true
			}
		}
		return false
	}
	s := editStream{edits: make([]edit, 0, n)}
	for len(s.edits) < n {
		switch k := r.IntN(10); {
		case k < 2:
			id := graph.NodeID(len(adj))
			links := make([]graph.NodeID, 0, 3)
			for len(links) < 3 {
				if t := pick(); !contains(links, t) {
					links = append(links, t)
				}
			}
			adj = append(adj, links)
			pos = append(pos, len(live))
			live = append(live, id)
			s.edits = append(s.edits, edit{kind: addDoc, doc: id, links: links})
		case k < 6:
			from, to := pick(), pick()
			if from == to || has(from, to) {
				continue
			}
			adj[from] = append(adj[from], to)
			s.edits = append(s.edits, edit{kind: addLink, doc: from, to: to})
		case k < 9:
			from := pick()
			if len(adj[from]) == 0 {
				continue
			}
			i := r.IntN(len(adj[from]))
			to := adj[from][i]
			adj[from] = append(adj[from][:i:i], adj[from][i+1:]...)
			s.edits = append(s.edits, edit{kind: removeLink, doc: from, to: to})
		default:
			if len(live) < 2 {
				continue
			}
			d := pick()
			last := live[len(live)-1]
			live[pos[d]], pos[last] = last, pos[d]
			live, pos[d] = live[:len(live)-1], -1
			adj[d] = nil
			s.edits = append(s.edits, edit{kind: removeDoc, doc: d})
		}
	}
	s.removed = make([]bool, len(adj))
	for v, p := range pos {
		s.removed[v] = p < 0
	}
	return s
}

func contains(s []graph.NodeID, v graph.NodeID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// applyFacade applies one edit through the public DynamicSession.
func applyFacade(s *dpr.DynamicSession, e edit) error {
	switch e.kind {
	case addDoc:
		id, err := s.AddDocument(e.links)
		if err == nil && id != e.doc {
			err = fmt.Errorf("new document got id %d, want %d", id, e.doc)
		}
		return err
	case addLink:
		return s.AddLink(e.doc, e.to)
	case removeLink:
		return s.RemoveLink(e.doc, e.to)
	default:
		return s.RemoveDocument(e.doc)
	}
}

// session is one DynamicSession fed the whole edit stream.
type session struct {
	setup, cpu time.Duration
	rssMB      float64   // resident-set peak of set-up and edits
	latency    []float64 // seconds per edit
	msgs       int64
	ranks      []float64
	snapshot   *graph.Graph
}

// runSession builds a session over g and feeds it the stream, one call
// at a time, timing each call until the ranks have re-converged. Each
// edit is one operation of t.
func runSession(g *graph.Graph, p params, seed uint64, st editStream, t *tally) (session, error) {
	var s session
	if err := freshStart(); err != nil {
		return s, err
	}
	t0 := time.Now()
	ds, err := dpr.NewDynamicSession(g, dpr.Options{Peers: p.peers, Damping: damping, Epsilon: epsilon, Seed: seed})
	s.setup = time.Since(t0)
	if err != nil {
		t.check(err)
		return s, err
	}
	s.latency = make([]float64, 0, len(st.edits))
	m0 := ds.NetworkMessages()
	c0 := cpuTime()
	for _, e := range st.edits {
		e0 := time.Now()
		err := applyFacade(ds, e)
		s.latency = append(s.latency, time.Since(e0).Seconds())
		t.check(err)
	}
	s.cpu = cpuTime() - c0
	s.msgs = ds.NetworkMessages() - m0
	s.rssMB, err = peakRSSMB()
	s.ranks = append([]float64(nil), ds.Ranks()...)
	s.snapshot = ds.Snapshot()
	return s, err
}

// checkEdited compares a session's final ranks with a fresh
// centralized solve of its final topology. Removed documents must hold
// rank 0 and are left out of the comparison: the solver still credits
// them their in-links, which feed nothing onward.
func checkEdited(s session, st editStream) (avg, p99 float64, err error) {
	ref, err := dpr.CentralizedPageRank(s.snapshot, damping)
	if err != nil {
		return 0, 0, err
	}
	for d, gone := range st.removed {
		if gone && s.ranks[d] != 0 {
			return 0, 0, fmt.Errorf("edits: removed document %d has rank %v", d, s.ranks[d])
		}
	}
	avg, p99, err = relErrors(s.ranks, ref, func(i int) bool { return st.removed[i] })
	if err != nil {
		return 0, 0, fmt.Errorf("edits: %w", err)
	}
	if err := checkErrors(avg, p99); err != nil {
		return 0, 0, fmt.Errorf("edits: %w", err)
	}
	return avg, p99, nil
}

// runEdits measures edits-100k: sessions over one graph, each fed the
// same seeded edit stream. The pass engine is deterministic, so every
// session must end with bit-identical ranks.
func runEdits(p params, seed uint64, budget time.Duration, trace bool, t *tally) (metrics, error) {
	g, err := dpr.GenerateWebGraph(p.docs, seed)
	if err != nil {
		return nil, err
	}
	st := makeEdits(g, p.edits, seed)
	if trace {
		return traceEdits(g, p, seed, st, budget, t)
	}
	var (
		first                []float64
		setup, cpu, lat, rss []float64
		msgs                 int64
		errAvg, errP99       float64
	)
	start := time.Now()
	for i := 0; i <= p.minOps || time.Since(start) < budget; i++ {
		s, err := runSession(g, p, seed, st, t)
		if err != nil {
			continue
		}
		if first == nil {
			errAvg, errP99, err = checkEdited(s, st)
			first, msgs = s.ranks, s.msgs
		} else if err = sameRanks(s.ranks, first); err != nil {
			err = fmt.Errorf("edits: sessions not deterministic: %w", err)
		}
		if !t.check(err) {
			continue
		}
		if i == 0 {
			continue // warm-up: checked, not measured
		}
		setup = append(setup, s.setup.Seconds())
		logOp(i, "setup %.4fs edits p50 %.1fus cpu/edit %.1fus", s.setup.Seconds(),
			median(s.latency)*1e6, s.cpu.Seconds()/float64(len(st.edits))*1e6)
		cpu = append(cpu, s.cpu.Seconds()/float64(len(st.edits)))
		lat = append(lat, s.latency...)
		rss = append(rss, s.rssMB)
	}
	if len(setup) == 0 {
		return nil, fmt.Errorf("every session failed")
	}
	return metrics{
		"setup_s":      median(setup),
		"converge_s":   median(lat),
		"cpu_s":        median(cpu),
		"msgs_per_doc": float64(msgs) / float64(len(st.edits)) / float64(p.docs),
		"err_avg":      errAvg,
		"err_p99":      errP99,
		"peak_rss_mb":  median(rss),
	}, nil
}

// replay is DynamicSession taken apart: the same edit stream driven
// through graph.Mutable and core.PassEngine directly, with a span
// around each layer's part of every edit.
type replay struct {
	m   *graph.Mutable
	e   *core.PassEngine
	net *p2p.Network
	r   *rng.Rand

	mutable, reseed, run time.Duration
	passes, docs         int
}

// newReplay builds what dpr.NewDynamicSession builds, from the same
// options, and converges it.
func newReplay(g *graph.Graph, p params, seed uint64) (*replay, error) {
	m := graph.NewMutable(g)
	net := p2p.NewNetwork(p.peers)
	net.AssignRandom(g, rng.New(seed))
	e, err := core.NewPassEngine(m, net, nil, core.Options{
		Damping: damping, Epsilon: epsilon, MaxPass: maxPasses,
	})
	if err != nil {
		return nil, err
	}
	if res := e.Run(); !res.Converged {
		return nil, fmt.Errorf("replay: initial computation did not converge")
	}
	rp := &replay{m: m, e: e, net: net, r: rng.New(seed + 7)}
	e.OnPass = func(st core.PassStats) bool {
		rp.passes++
		rp.docs += st.ProcessedDocs
		return true
	}
	return rp, nil
}

// apply performs one edit layer by layer, timing the topology change,
// the engine's reseeding and the re-convergence separately.
func (rp *replay) apply(e edit) error {
	t0 := time.Now()
	var old []graph.NodeID
	switch e.kind {
	case addDoc:
		id, err := rp.m.AddNode(e.links)
		if err != nil {
			return err
		}
		if id != e.doc {
			return fmt.Errorf("replay: new document got id %d, want %d", id, e.doc)
		}
	case addLink, removeLink:
		old = append(old, rp.m.OutLinks(e.doc)...)
		var changed bool
		var err error
		if e.kind == addLink {
			changed, err = rp.m.AddLink(e.doc, e.to)
		} else {
			changed, err = rp.m.RemoveLink(e.doc, e.to)
		}
		if err != nil {
			return err
		}
		if !changed {
			return fmt.Errorf("replay: edit %v %d->%d changed nothing", e.kind, e.doc, e.to)
		}
	}
	t1 := time.Now()
	var err error
	switch e.kind {
	case addDoc:
		err = rp.e.AttachDocument(e.doc, p2p.PeerID(rp.r.Intn(rp.net.NumPeers())))
	case addLink, removeLink:
		err = rp.e.UpdateOutlinks(e.doc, old)
	default:
		err = rp.e.RemoveDoc(e.doc)
	}
	if err != nil {
		return err
	}
	t2 := time.Now()
	if e.kind == removeDoc {
		// DynamicSession retracts the document first, then clears its
		// row of the topology.
		if err := rp.m.ClearOutLinks(e.doc); err != nil {
			return err
		}
	}
	t3 := time.Now()
	res := rp.e.Run()
	t4 := time.Now()
	rp.mutable += t1.Sub(t0) + t3.Sub(t2)
	rp.reseed += t2.Sub(t1)
	rp.run += t4.Sub(t3)
	if !res.Converged {
		return fmt.Errorf("replay: re-convergence incomplete after %d passes", res.Passes)
	}
	return nil
}

// traceEdits runs facade sessions untraced (the baseline for the
// overhead, and the ranks the replay must match bit for bit), then the
// layer-by-layer replay under a CPU profile.
func traceEdits(g *graph.Graph, p params, seed uint64, st editStream, budget time.Duration, t *tally) (metrics, error) {
	var (
		first []float64
		lat   []float64
	)
	start := time.Now()
	for i := 0; i < 1 || time.Since(start) < budget/2; i++ {
		s, err := runSession(g, p, seed, st, t)
		if err != nil {
			continue
		}
		if first == nil {
			_, _, err = checkEdited(s, st)
			first = s.ranks
		} else if err = sameRanks(s.ranks, first); err != nil {
			err = fmt.Errorf("edits: sessions not deterministic: %w", err)
		}
		if t.check(err) {
			lat = append(lat, s.latency...)
		}
	}
	if first == nil {
		return nil, fmt.Errorf("every session failed")
	}
	if err := freshStart(); err != nil {
		return nil, err
	}
	rp, err := newReplay(g, p, seed)
	if !t.check(err) {
		return nil, err
	}
	prof := newProfiler()
	m0 := rp.e.Counters().InterPeerMsgs
	rt0 := readRuntime()
	if err := prof.start(); err != nil {
		return nil, err
	}
	traced := make([]float64, 0, len(st.edits))
	for _, e := range st.edits {
		e0 := time.Now()
		err := rp.apply(e)
		traced = append(traced, time.Since(e0).Seconds())
		t.check(err)
	}
	if err := prof.stop(); err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	if err := sameRanks(rp.e.Ranks(), first); err != nil {
		t.check(fmt.Errorf("edits: layer replay differs from DynamicSession: %w", err))
	}
	msgs := float64(rp.e.Counters().InterPeerMsgs - m0)
	n := float64(len(st.edits))
	m := metrics{}
	prof.report(m, msgs)
	addRuntime(m, rt0, rt1, msgs)
	m["graph.mutable.ns_per_edit"] = float64(rp.mutable.Nanoseconds()) / n
	m["core.reseed.ns_per_edit"] = float64(rp.reseed.Nanoseconds()) / n
	m["core.passes"] = float64(rp.passes)
	m["core.passes_per_edit"] = float64(rp.passes) / n
	m["core.docs_per_edit"] = float64(rp.docs) / n
	m["core.pass.ns_per_pass"] = float64(rp.run.Nanoseconds()) / float64(rp.passes)
	m["core.pass.ns_per_processed_doc"] = float64(rp.run.Nanoseconds()) / float64(rp.docs)
	m["core.pass.ns_per_msg"] = float64(rp.run.Nanoseconds()) / msgs
	m["edit.p99_us"] = quantile(lat, 0.99) * 1e6
	m["trace.overhead_frac"] = overhead(median(traced), median(lat))
	return m, nil
}
