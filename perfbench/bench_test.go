package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"dpr"
	"dpr/internal/core"
	"dpr/internal/wire"
)

// tiny shrinks a workload to test size: the same code paths, a
// 2k-document graph.
func tiny(w workload) workload {
	w.p.docs = 2000
	w.p.minOps = 1
	if w.p.peers > 20 {
		w.p.peers = 20
	}
	if w.p.edits > 0 {
		w.p.edits = 300
	}
	return w
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestEveryListedMetricIsEmitted runs every workload of BENCHMARK.json
// at tiny size, untraced and traced, and checks that each run passes
// its correctness checks and reports exactly the listed metrics with
// their listed units; end-to-end metrics must never read 0.
func TestEveryListedMetricIsEmitted(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for _, lw := range bf.Workloads {
		w, ok := findWorkload(lw.Name)
		if !ok {
			t.Fatalf("workload %s listed but not implemented", lw.Name)
		}
		for _, trace := range []bool{false, true} {
			res, err := execute(tiny(w), 3, time.Millisecond, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", w.name, trace, m.Name, got.Unit, m.Unit)
				case !trace && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, m.Name, got.Value)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.name, trace, m.Name, got.Value)
				}
			}
		}
	}
}

// TestProfileSharesSumToOne profiles pass-engine computations and
// checks that the layer shares cover every sample, other included.
func TestProfileSharesSumToOne(t *testing.T) {
	g, err := dpr.GenerateWebGraph(2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := tiny(workloads[1]).p
	prof := newProfiler()
	if err := prof.start(); err != nil {
		t.Fatal(err)
	}
	var msgs int64
	for c0 := cpuTime(); cpuTime()-c0 < 300*time.Millisecond; {
		e, _, _, err := setupPass(g, p, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		msgs += e.Run().Counters.InterPeerMsgs
	}
	if err := prof.stop(); err != nil {
		t.Fatal(err)
	}
	if prof.total == 0 {
		t.Fatal("profile recorded no samples")
	}
	m := metrics{}
	prof.report(m, float64(msgs))
	sum := 0.0
	for _, l := range layers {
		share, ok := m[l+".share"]
		if !ok {
			t.Fatalf("%s.share not reported", l)
		}
		if _, ok := m[l+".ns_per_update"]; !ok {
			t.Fatalf("%s.ns_per_update not reported", l)
		}
		sum += share
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("layer shares sum to %v", sum)
	}
	for _, l := range layers {
		if l != "core" && l != "other" && m[l+".share"] > m["core.share"] {
			t.Fatalf("%s.share %v above core.share %v on a pass-engine profile", l, m[l+".share"], m["core.share"])
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.mapaccess2_fast32", "dpr/internal/wire.(*ranker).fold", "dpr/internal/wire.(*Peer).consume"}, "wire.fold"},
		{[]string{"runtime.mallocgc", "dpr/internal/p2p.(*RetryQueue).DeferMerge", "dpr/internal/wire.(*Peer).queueRemote"}, "p2p.coalesce"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.write", "internal/poll.(*FD).Write", "net.(*conn).Write", "dpr/internal/wire.writeFrame"}, "wire.socket"},
		{[]string{"encoding/binary.littleEndian.PutUint64", "dpr/internal/wire.encodeBatchEpoch", "dpr/internal/wire.(*sender).nextFrame"}, "wire.codec"},
		{[]string{"dpr/internal/telemetry.(*Histogram).Observe", "dpr/internal/wire.(*sender).ack"}, "wire.peer"},
		{[]string{"dpr/internal/wire.(*Peer).Start.gowrap1"}, "wire.peer"},
		{[]string{"dpr/internal/wire.probePeer", "dpr/internal/wire.(*Cluster).counters"}, "wire.cluster"},
		{[]string{"dpr/internal/graph.(*Graph).OutLinks", "dpr/internal/core.(*PassEngine).computeChunk"}, "graph"},
		{[]string{"dpr/internal/p2p.(*Network).PeerOf", "dpr/internal/core.(*PassEngine).deliver.func1"}, "core"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.mstart"}, "other"},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%s) = %s, want %s", strings.Join(c.stack, " <- "), got, c.want)
		}
	}
}

// TestReplayMatchesDynamicSession checks that the traced replay, which
// drives graph.Mutable and core.PassEngine directly, ends every edit
// stream with ranks bit-identical to the public DynamicSession's.
func TestReplayMatchesDynamicSession(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		g, err := dpr.GenerateWebGraph(2000, seed)
		if err != nil {
			t.Fatal(err)
		}
		p := tiny(workloads[2]).p
		st := makeEdits(g, p.edits, seed)
		var tl tally
		s, err := runSession(g, p, seed, st, &tl)
		if err != nil || tl.failed != 0 {
			t.Fatalf("seed %d: session: %v (%d failed edits)", seed, err, tl.failed)
		}
		if _, _, err := checkEdited(s, st); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rp, err := newReplay(g, p, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range st.edits {
			if err := rp.apply(e); err != nil {
				t.Fatalf("seed %d: replay: %v", seed, err)
			}
		}
		if err := sameRanks(rp.e.Ranks(), s.ranks); err != nil {
			t.Fatalf("seed %d: replay differs from DynamicSession: %v", seed, err)
		}
		if rp.passes == 0 || rp.mutable <= 0 || rp.reseed <= 0 || rp.run <= 0 {
			t.Fatalf("seed %d: empty spans: %d passes, mutable %v, reseed %v, run %v",
				seed, rp.passes, rp.mutable, rp.reseed, rp.run)
		}
	}
}

// TestEditStreamMix checks the stream's proportions and that it never
// removes a document twice or links to a removed one.
func TestEditStreamMix(t *testing.T) {
	g, err := dpr.GenerateWebGraph(2000, 9)
	if err != nil {
		t.Fatal(err)
	}
	st := makeEdits(g, 5000, 9)
	var count [4]int
	gone := make([]bool, len(st.removed))
	for _, e := range st.edits {
		count[e.kind]++
		switch e.kind {
		case removeDoc:
			if gone[e.doc] {
				t.Fatalf("document %d removed twice", e.doc)
			}
			gone[e.doc] = true
		case addLink:
			if gone[e.doc] || gone[e.to] {
				t.Fatalf("link %d->%d touches a removed document", e.doc, e.to)
			}
		case addDoc:
			for _, l := range e.links {
				if gone[l] {
					t.Fatalf("new document %d links to removed %d", e.doc, l)
				}
			}
		}
	}
	for k, want := range []float64{0.2, 0.4, 0.3, 0.1} {
		if got := float64(count[k]) / float64(len(st.edits)); math.Abs(got-want) > 0.03 {
			t.Errorf("edit kind %d is %.3f of the stream, want %.1f", k, got, want)
		}
	}
	for d, g := range gone {
		if g != st.removed[d] {
			t.Fatalf("removed set disagrees at document %d", d)
		}
	}
}

// TestChecksCatchBadResults feeds the correctness checks results they
// must reject.
func TestChecksCatchBadResults(t *testing.T) {
	ref := []float64{1, 2, 3}
	avg, p99, err := relErrors([]float64{1, 2.2, 3}, ref, nil)
	if err != nil {
		t.Fatal(err)
	}
	if checkErrors(avg, p99) == nil {
		t.Error("10% error on one document passed the error bound")
	}
	var r passRef
	res := core.Result{Ranks: []float64{1, 2}, Passes: 3}
	if err := r.check(res); err != nil {
		t.Fatal(err)
	}
	res2 := core.Result{Ranks: []float64{1, math.Nextafter(2, 3)}, Passes: 3}
	if r.check(res2) == nil {
		t.Error("ranks one ulp apart passed the determinism check")
	}
	if _, _, err := checkWire(wire.ClusterResult{Ranks: ref, Misdropped: 1}, ref); err == nil {
		t.Error("a misdropped update passed the wire check")
	}
	if _, _, err := checkWire(wire.ClusterResult{Ranks: ref, DeltaShipped: 1, DeltaFolded: 0.9}, ref); err == nil {
		t.Error("unfolded delta mass passed the wire check")
	}
}
