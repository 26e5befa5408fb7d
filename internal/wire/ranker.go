package wire

import (
	"sync"

	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/telemetry"
)

// ranker is the transport-independent per-peer computation: the
// chaotic-iteration state for the documents one peer owns, the same
// whether the peer's connections are plain TCP or HTTP-upgraded. All
// methods are safe for concurrent use.
//
// Under dynamic membership the document set is mutable: adopt appends
// a transferred snapshot's rows, shed extracts rows for a joining peer
// (both through the same appendRows/takeRows that edit a crashed
// peer's checkpoint), and setOwner rewrites the routing table. Each
// ranker owns a private copy of the doc->peer table so a membership
// change pushed to one peer can never race another peer's routing
// reads.
type ranker struct {
	id      p2p.PeerID
	g       *graph.Graph
	damping float64
	epsilon float64

	// mass mirrors sum(rank) into the telemetry registry: Set on
	// (re)initialisation, Add on every fold/adopt/shed. Per-peer
	// gauges merge into the cluster's total rank mass.
	mass *telemetry.Gauge

	mu      sync.Mutex
	docPeer []p2p.PeerID // private copy; mutated by setOwner/adopt/shed
	docs    []graph.NodeID
	index   map[graph.NodeID]int32
	rank    []float64
	acc     []float64
	last    []float64
}

func newRanker(cfg PeerConfig, mass *telemetry.Gauge) *ranker {
	r := &ranker{
		id:      cfg.ID,
		g:       cfg.Graph,
		docPeer: append([]p2p.PeerID(nil), cfg.DocPeer...),
		damping: cfg.Damping,
		epsilon: cfg.Epsilon,
		mass:    mass,
		docs:    append([]graph.NodeID(nil), cfg.Docs...),
		index:   make(map[graph.NodeID]int32, len(cfg.Docs)),
		rank:    make([]float64, len(cfg.Docs)),
		acc:     make([]float64, len(cfg.Docs)),
		last:    make([]float64, len(cfg.Docs)),
	}
	for i, d := range cfg.Docs {
		r.index[d] = int32(i)
		r.rank[i] = 1 - cfg.Damping
	}
	r.mass.Set(float64(len(cfg.Docs)) * (1 - cfg.Damping))
	return r
}

// initialOut builds the initial-push batches, keyed by destination.
func (r *ranker) initialOut() map[p2p.PeerID][]p2p.Update {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[p2p.PeerID][]p2p.Update)
	for i := range r.docs {
		r.collectLocked(int32(i), r.docs[i], out)
	}
	return out
}

// fold applies a batch of updates and returns the consequent batches
// plus the updates for documents this peer does not own. Misrouted
// updates are NOT dropped — under dynamic membership they are updates
// that raced an ownership migration, and the caller must forward them
// to the current owner so no rank mass is ever lost.
func (r *ranker) fold(batch []p2p.Update) (out map[p2p.PeerID][]p2p.Update, fwd []p2p.Update) {
	r.mu.Lock()
	defer r.mu.Unlock()
	touched := make(map[int32]graph.NodeID)
	for _, u := range batch {
		i, mine := r.index[u.Doc]
		if !mine {
			fwd = append(fwd, u)
			continue
		}
		r.acc[i] += u.Delta
		touched[i] = u.Doc
	}
	out = make(map[p2p.PeerID][]p2p.Update)
	massDelta := 0.0
	for i, d := range touched {
		old := r.rank[i]
		fresh := (1 - r.damping) + r.acc[i]
		r.rank[i] = fresh
		massDelta += fresh - old
		denom := fresh
		if denom < 0 {
			denom = -denom
		}
		if denom == 0 {
			denom = 1
		}
		diff := fresh - old
		if diff < 0 {
			diff = -diff
		}
		if diff/denom > r.epsilon {
			r.collectLocked(i, d, out)
		}
	}
	if massDelta != 0 {
		r.mass.Add(massDelta)
	}
	return out, fwd
}

// collectLocked batches document d's pending delta per destination.
// Caller holds mu.
func (r *ranker) collectLocked(i int32, d graph.NodeID, out map[p2p.PeerID][]p2p.Update) {
	links := r.g.OutLinks(d)
	if len(links) == 0 {
		r.last[i] = r.rank[i]
		return
	}
	share := r.damping * (r.rank[i] - r.last[i]) / float64(len(links))
	if share == 0 {
		r.last[i] = r.rank[i]
		return
	}
	for _, t := range links {
		dest := r.docPeer[t]
		out[dest] = append(out[dest], p2p.Update{Doc: t, Delta: share})
	}
	r.last[i] = r.rank[i]
}

// ownerOf resolves a document's current owner from the private table.
func (r *ranker) ownerOf(d graph.NodeID) p2p.PeerID {
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(d) >= len(r.docPeer) {
		return p2p.NoPeer
	}
	return r.docPeer[d]
}

// owns reports whether this ranker currently holds document d.
func (r *ranker) owns(d graph.NodeID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.index[d]
	return ok
}

// ownerTable returns a snapshot copy of the routing table.
func (r *ranker) ownerTable() []p2p.PeerID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]p2p.PeerID(nil), r.docPeer...)
}

// rerouteOwner repoints every routing entry held by from at to,
// except documents this ranker itself holds. Used when a merged view
// reveals that a slot's range moved (departed peer with a forwarding
// successor, or a fenced slot reconciled to a higher-epoch owner).
func (r *ranker) rerouteOwner(from, to p2p.PeerID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for d, owner := range r.docPeer {
		if owner != from {
			continue
		}
		if _, mine := r.index[graph.NodeID(d)]; mine {
			continue
		}
		r.docPeer[d] = to
	}
}

// setOwner points the routing table entries for docs at owner. New
// outbound updates for those documents route to the new owner from
// the next fold on.
func (r *ranker) setOwner(docs []graph.NodeID, owner p2p.PeerID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, d := range docs {
		if int(d) < len(r.docPeer) {
			r.docPeer[d] = owner
		}
	}
}

// adopt appends a migrated document range: the rows arrive mid-flight
// from a transferred snapshot and continue exactly where the previous
// owner's last fold left them (rank/acc committed, last marking what
// has already been pushed downstream). Adopted docs are immediately
// marked self-owned in the routing table; docs already held keep their
// state (a replayed transfer).
func (r *ranker) adopt(s *PeerSnapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rows := r.rowsLocked()
	n := len(rows.Docs)
	appendRows(rows, s)
	r.docs, r.rank, r.acc, r.last = rows.Docs, rows.Rank, rows.Acc, rows.Last
	adopted := 0.0
	for i := n; i < len(r.docs); i++ {
		d := r.docs[i]
		r.index[d] = int32(i)
		adopted += r.rank[i]
		if int(d) < len(r.docPeer) {
			r.docPeer[d] = r.id
		}
	}
	if adopted != 0 {
		r.mass.Add(adopted)
	}
}

// shed extracts the rows for docs (handing them to a joining peer) and
// atomically repoints the routing table at newOwner, so an update for
// a shed document arriving in the very next fold is forwarded rather
// than folded into state that already left.
func (r *ranker) shed(docs []graph.NodeID, newOwner p2p.PeerID) (*PeerSnapshot, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rows := r.rowsLocked()
	out, err := takeRows(rows, docs)
	if err != nil {
		return nil, err
	}
	r.docs, r.rank, r.acc, r.last = rows.Docs, rows.Rank, rows.Acc, rows.Last
	r.index = make(map[graph.NodeID]int32, len(r.docs))
	for j, d := range r.docs {
		r.index[d] = int32(j)
	}
	extracted := 0.0
	for i, d := range docs {
		extracted += out.Rank[i]
		if int(d) < len(r.docPeer) {
			r.docPeer[d] = newOwner
		}
	}
	if extracted != 0 {
		r.mass.Add(-extracted)
	}
	return out, nil
}

// rowsLocked views the ranker's rows in snapshot form, without
// copying, so adopt and shed share appendRows and takeRows with the
// crashed-peer path that edits a stored checkpoint. Caller holds mu.
func (r *ranker) rowsLocked() *PeerSnapshot {
	return &PeerSnapshot{ID: r.id, Docs: r.docs, Rank: r.rank, Acc: r.acc, Last: r.last}
}

// rows returns a copy of the ranker's rows in snapshot form.
func (r *ranker) rows() *PeerSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &PeerSnapshot{
		ID:   r.id,
		Docs: append([]graph.NodeID(nil), r.docs...),
		Rank: append([]float64(nil), r.rank...),
		Acc:  append([]float64(nil), r.acc...),
		Last: append([]float64(nil), r.last...),
	}
}

// snapshotRanks returns (docs, ranks) for collection.
func (r *ranker) snapshotRanks() ([]graph.NodeID, []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	docs := append([]graph.NodeID(nil), r.docs...)
	ranks := append([]float64(nil), r.rank...)
	return docs, ranks
}
