package wire

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"dpr/internal/graph"
	"dpr/internal/p2p"
)

// PeerSnapshot is the one form in which a peer's durable state moves.
// It follows internal/core's checkpoint design: the per-document
// ranker triple (rank, accumulator, last-pushed value), serialized in
// the same magic/version/records layout, extended with the wire
// layer's recovery state — the duplicate-suppression table and the
// store-and-retry outbound queues (unacknowledged frames verbatim plus
// coalesced pending updates).
//
// Every transfer is a snapshot applied by one processing-loop function
// (applyAdopt): Kill writes one, RestorePeer resumes a crashed peer
// from it (and alone also restores its counters), Adopt hands a
// departed peer's to its live ring successor, and Join starts a fresh
// peer from the rows its successor shed. A crashed successor gets the
// departed snapshot merged into its own (MergeSnapshot) and applies it
// on restart. Senders redeliver everything unacknowledged, receivers
// suppress what was already folded, pending updates are re-homed by
// the current owner table, and the termination counters carry over so
// the cluster-wide probe stays exact across the crash.
//
// The duplicate-suppression table and the outbound queues are keyed
// by delivery stream (source, original destination) instead of by
// single peer, which is what lets a departed peer's state migrate: its
// ring successor adopts the dedup entries and the unacknowledged frames
// under their original stream identity, so redirected retransmissions
// are recognized wherever they land. Self-directed updates that were
// counted sent but not yet folded travel as the pending updates of the
// self stream (Src == Dest == ID), so no transfer strands them.
//
// Beyond the ranker rows and the stream tables the snapshot carries:
//   - the ownership-epoch vector (one fencing epoch per ring slot) and
//     the epoch-rejected counter, so a restored peer re-frames its
//     unacknowledged batches under epochs at least as fresh as the ones
//     it crashed with — a receiver that moved on can nack the stale
//     retransmissions instead of silently double-folding them;
//   - the epoch-rejected sequence list: seqs this peer nacked at the
//     epoch fence whose updates therefore never folded. lastSeq can
//     legitimately pass such a seq (a later refreshed-epoch frame folds
//     first), so whoever inherits the dedup table must also inherit
//     this exemption list, or a retransmission of the rejected frame
//     would be swallowed as a duplicate and its updates lost;
//   - the overload-protection state: the three flow-control counters
//     (credit stalls, shed-coalesced updates, slow-peer transitions)
//     and, per outbound stream, the last credit window the destination
//     advertised, so a restarted sender resumes under the receiver's
//     pre-crash budget instead of bursting at the configured maximum.
//
// Snapshots never outlive the process that wrote them (they are
// checkpoints and handoffs between peers of one cluster), so the
// decoder accepts exactly the current version.

const (
	peerSnapMagic   = "DPRW"
	peerSnapVersion = 5
	// peerSnapMinVersion is the compatibility floor: the oldest
	// snapshot version the decoder still accepts. Lowering it below
	// peerSnapVersion means restoring a decode path for every version
	// in between.
	peerSnapMinVersion = peerSnapVersion
)

// PeerSnapshot is a peer's durable state, or the part of it that moves
// to another peer (rows, stream tables, epochs and outbound queues).
type PeerSnapshot struct {
	ID   p2p.PeerID
	Docs []graph.NodeID

	// Ranker state, indexed like Docs.
	Rank, Acc, Last []float64

	// LastSeq is the highest folded sequence number per delivery
	// stream (source peer, original destination).
	LastSeq []SeqEntry

	// Rejected lists epoch-rejected sequence numbers: never folded,
	// exempt from duplicate suppression even when below the stream's
	// LastSeq entry.
	Rejected []SeqEntry

	// Outbound is the store-and-retry state per delivery stream.
	Outbound []OutboundState

	// Epochs is the ownership-epoch vector, indexed by ring slot: the
	// highest fencing epoch this peer had observed per key range.
	Epochs []uint64

	// Counters, carried across the restart.
	Sent, Processed                   uint64
	Retries, Reconnects, Redeliveries uint64
	Coalesced, DupDropped             uint64
	Forwarded, Misdropped             uint64
	EpochRejected                     uint64
	CreditStalls, ShedCoalesced       uint64
	SlowPeer                          uint64
	DeltaShipped, DeltaFolded         float64
}

// SeqEntry is one duplicate-suppression record: the highest folded
// sequence number of the (Src, Dest) delivery stream. Dest is the
// peer the stream's frames were originally framed for, which after a
// migration can differ from the peer holding the entry.
type SeqEntry struct {
	Src, Dest p2p.PeerID
	Seq       uint64
}

// OutboundState is one delivery stream's sender state. Src is the
// peer that framed the stream's batches — normally the snapshotted
// peer itself, but after adopting a departed peer's outbound queues a
// snapshot can carry streams framed by earlier owners.
type OutboundState struct {
	Src     p2p.PeerID
	Dest    p2p.PeerID
	NextSeq uint64
	Window  uint64         // last advertised credit window (0: use configured default)
	Unacked []UnackedFrame // framed, possibly transmitted, not acknowledged
	Pending []p2p.Update   // counted sent, not yet framed or folded
}

// UnackedFrame is a framed batch that must be redelivered verbatim
// (same sequence number) so the receiver can suppress it if the
// original copy was folded before the crash.
type UnackedFrame struct {
	Seq     uint64
	Updates []p2p.Update
}

// snapshot assembles the peer's durable state. Callers must have
// stopped the peer's goroutines first (stop), so every field is
// quiescent.
func (p *Peer) snapshot() *PeerSnapshot {
	// Self-directed batches still queued for the processing loop were
	// counted sent and no sender retransmits them: park them with
	// whatever foldLater stranded after the shutdown, so they leave as
	// the self stream's pending updates. Remote frames are dropped; their
	// senders hold them unacknowledged and retransmit.
	for len(p.bulk) > 0 {
		if it := <-p.bulk; !it.seqed {
			p.strand(it.us)
		}
	}
	s := p.rk.rows()
	s.Epochs = p.view().Epochs
	s.LastSeq, s.Rejected = seqEntries(p.lastSeq, p.rejected)
	s.EpochRejected = p.m.epochRejected.Load()
	s.CreditStalls = p.m.creditStalls.Load()
	s.ShedCoalesced = p.m.shedCoalesced.Load()
	s.SlowPeer = p.m.slowPeer.Load()
	s.Sent = p.m.sent.Load()
	s.Processed = p.m.processed.Load()
	s.Retries = p.m.retries.Load()
	s.Reconnects = p.m.reconnects.Load()
	s.Redeliveries = p.m.redeliveries.Load()
	s.Coalesced = p.m.coalesced.Load()
	s.DupDropped = p.m.dupDropped.Load()
	s.Forwarded = p.m.forwarded.Load()
	s.Misdropped = p.m.misdropped.Load()
	s.DeltaShipped = p.m.deltaShipped.Load()
	s.DeltaFolded = p.m.deltaFolded.Load()
	strms := make([]stream, 0, len(p.senders))
	for st := range p.senders {
		strms = append(strms, st)
	}
	slices.SortFunc(strms, cmpStream)
	for _, st := range strms {
		snd := p.senders[st]
		ob := OutboundState{Src: st.src, Dest: st.dest, NextSeq: snd.nextSeq, Window: snd.window}
		for _, fr := range snd.unacked {
			// Decode the frame back into updates; the restore re-frames
			// them with the same stream identity and sequence number.
			_, _, seq, us, err := decodeFrameBytes(fr.bytes)
			if err != nil {
				continue // cannot happen: we encoded it
			}
			ob.Unacked = append(ob.Unacked, UnackedFrame{Seq: seq, Updates: us})
		}
		if st.src == p.cfg.ID {
			ob.Pending = p.rq.Drain(st.dest)
		}
		if len(ob.Unacked) > 0 || len(ob.Pending) > 0 || ob.NextSeq > 1 {
			s.Outbound = append(s.Outbound, ob)
		}
	}
	// Queued destinations without a sender: the self stream's stranded
	// updates, and updates an ownership reroute parked during shutdown.
	for _, dest := range p.rq.Dests() {
		s.Outbound = append(s.Outbound, OutboundState{
			Src: p.cfg.ID, Dest: dest, NextSeq: 1, Pending: p.rq.Drain(dest),
		})
	}
	return s
}

func cmpStream(a, b stream) int {
	return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.dest, b.dest))
}

// mergeSeqs folds a snapshot's duplicate-suppression entries into a
// stream table: per stream the higher folded seq wins, and the
// epoch-rejected seqs union.
func mergeSeqs(lastSeq map[stream]uint64, rejected map[stream]map[uint64]struct{}, s *PeerSnapshot) {
	for _, e := range s.LastSeq {
		st := stream{src: e.Src, dest: e.Dest}
		if e.Seq > lastSeq[st] {
			lastSeq[st] = e.Seq
		}
	}
	for _, e := range s.Rejected {
		st := stream{src: e.Src, dest: e.Dest}
		if rejected[st] == nil {
			rejected[st] = make(map[uint64]struct{})
		}
		rejected[st][e.Seq] = struct{}{}
	}
}

// seqEntries lists a stream table as sorted snapshot entries.
func seqEntries(lastSeq map[stream]uint64, rejected map[stream]map[uint64]struct{}) (seqs, rej []SeqEntry) {
	for st, seq := range lastSeq {
		seqs = append(seqs, SeqEntry{Src: st.src, Dest: st.dest, Seq: seq})
	}
	for st, set := range rejected {
		for seq := range set {
			rej = append(rej, SeqEntry{Src: st.src, Dest: st.dest, Seq: seq})
		}
	}
	byStreamSeq := func(a, b SeqEntry) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dest, b.Dest), cmp.Compare(a.Seq, b.Seq))
	}
	slices.SortFunc(seqs, byStreamSeq)
	slices.SortFunc(rej, byStreamSeq)
	return seqs, rej
}

// maxEpochs merges src into dst elementwise-max, growing dst to cover
// src: fencing only ever raises an epoch, so the higher observation is
// the fresher one.
func maxEpochs(dst, src []uint64) []uint64 {
	for len(dst) < len(src) {
		dst = append(dst, 0)
	}
	for i, e := range src {
		if e > dst[i] {
			dst[i] = e
		}
	}
	return dst
}

// appendRows appends src's ranker rows for the documents dst does not
// hold yet; documents dst already holds keep dst's state.
func appendRows(dst, src *PeerSnapshot) {
	have := make(map[graph.NodeID]struct{}, len(dst.Docs))
	for _, d := range dst.Docs {
		have[d] = struct{}{}
	}
	for i, d := range src.Docs {
		if _, dup := have[d]; dup {
			continue
		}
		dst.Docs = append(dst.Docs, d)
		dst.Rank = append(dst.Rank, src.Rank[i])
		dst.Acc = append(dst.Acc, src.Acc[i])
		dst.Last = append(dst.Last, src.Last[i])
	}
}

// takeRows removes the ranker rows for docs from s in place and returns
// them, in docs order, as a snapshot of their own. It fails without
// touching s when s does not hold every doc.
func takeRows(s *PeerSnapshot, docs []graph.NodeID) (*PeerSnapshot, error) {
	index := make(map[graph.NodeID]int, len(s.Docs))
	for i, d := range s.Docs {
		index[d] = i
	}
	out := &PeerSnapshot{ID: s.ID, Docs: append([]graph.NodeID(nil), docs...)}
	for _, d := range docs {
		j, ok := index[d]
		if !ok {
			return nil, fmt.Errorf("wire: peer %d does not hold doc %d", s.ID, d)
		}
		out.Rank = append(out.Rank, s.Rank[j])
		out.Acc = append(out.Acc, s.Acc[j])
		out.Last = append(out.Last, s.Last[j])
		delete(index, d)
	}
	keep := 0
	for j, d := range s.Docs {
		if _, stays := index[d]; !stays {
			continue
		}
		s.Docs[keep], s.Rank[keep], s.Acc[keep], s.Last[keep] = d, s.Rank[j], s.Acc[j], s.Last[j]
		keep++
	}
	s.Docs, s.Rank, s.Acc, s.Last = s.Docs[:keep], s.Rank[:keep], s.Acc[:keep], s.Last[:keep]
	return out, nil
}

// decodeFrameBytes parses a full epoch-batch frame as built by
// nextFrame or primeSender. The epoch itself is dropped — the
// restorer re-stamps with its own current epoch.
func decodeFrameBytes(b []byte) (src, dest p2p.PeerID, seq uint64, us []p2p.Update, err error) {
	typ, payload, err := readFrameBytes(b)
	if err != nil || typ != frameBatchEpoch {
		return 0, 0, 0, nil, fmt.Errorf("wire: not a stream batch frame")
	}
	src, dest, seq, _, us, err = decodeBatchEpoch(payload)
	return src, dest, seq, us, err
}

func readFrameBytes(b []byte) (byte, []byte, error) {
	if len(b) < 5 {
		return 0, nil, fmt.Errorf("wire: frame too short")
	}
	n := binary.LittleEndian.Uint32(b[:4])
	if uint32(len(b)-5) != n {
		return 0, nil, fmt.Errorf("wire: frame length mismatch")
	}
	return b[4], b[5:], nil
}

// RestorePeer rejoins a crashed peer, or starts a joining one from the
// rows its successor shed: a fresh listener (new address), the
// snapshot's counters, and then the snapshot applied exactly as Adopt
// applies a departed peer's (senders primed to redeliver everything
// unacknowledged, pending updates re-homed or folded). Call SetPeers
// (on every peer, since the address changed) and then Start; the
// restored peer skips the initial push.
func RestorePeer(cfg PeerConfig, snap *PeerSnapshot) (*Peer, error) {
	if snap == nil {
		return nil, fmt.Errorf("wire: nil snapshot")
	}
	if cfg.ID != snap.ID {
		return nil, fmt.Errorf("wire: snapshot is for peer %d, config says %d", snap.ID, cfg.ID)
	}
	if !slices.Equal(cfg.Docs, snap.Docs) {
		return nil, fmt.Errorf("wire: snapshot document set does not match config")
	}
	if len(snap.Rank) != len(snap.Docs) || len(snap.Acc) != len(snap.Docs) || len(snap.Last) != len(snap.Docs) {
		return nil, fmt.Errorf("wire: snapshot ranker state does not match its document set")
	}
	// The rows arrive with the snapshot, so the peer starts holding none.
	cfg.Docs = nil
	p, err := NewPeer(cfg)
	if err != nil {
		return nil, err
	}
	p.restored = true
	p.m.restore(snap)
	if err := p.Adopt(snap); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

// MergeSnapshot folds a departed peer's snapshot into its (also
// crashed) successor's, with the same row append, stream-table merge
// and epoch merge a live successor's Adopt performs; the departed
// outbound streams ride along and are applied when the successor
// restarts. Counters are NOT merged — the cluster accounts a departed
// peer's counters separately, exactly as in the live-adoption path.
func MergeSnapshot(dst, src *PeerSnapshot) {
	appendRows(dst, src)
	lastSeq, rejected := make(map[stream]uint64), make(map[stream]map[uint64]struct{})
	mergeSeqs(lastSeq, rejected, dst)
	mergeSeqs(lastSeq, rejected, src)
	dst.LastSeq, dst.Rejected = seqEntries(lastSeq, rejected)
	dst.Epochs = maxEpochs(dst.Epochs, src.Epochs)
	dst.Outbound = append(dst.Outbound, src.Outbound...)
}

// frameBytes renders one frame to a byte slice.
func frameBytes(typ byte, payload []byte) []byte {
	buf := make([]byte, 5+len(payload))
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(payload)))
	buf[4] = typ
	copy(buf[5:], payload)
	return buf
}

// EncodeSnapshot serializes a snapshot in the checkpoint layout:
// magic, version, header, then fixed-size records.
func EncodeSnapshot(s *PeerSnapshot, w io.Writer) error {
	// bufio.Writer errors are sticky: the first failed write is what
	// Flush reports, so the record writes need no checks of their own.
	bw := bufio.NewWriterSize(w, 1<<16)
	put := func(vs ...uint64) { binary.Write(bw, binary.LittleEndian, vs) }
	putUpdates := func(us []p2p.Update) {
		put(uint64(len(us)))
		for _, u := range us {
			put(uint64(uint32(u.Doc)), math.Float64bits(u.Delta))
		}
	}
	bw.WriteString(peerSnapMagic)
	put(peerSnapVersion, uint64(uint32(s.ID)), uint64(len(s.Docs)),
		uint64(len(s.LastSeq)), uint64(len(s.Outbound)), uint64(len(s.Epochs)),
		s.Sent, s.Processed, s.Retries, s.Reconnects, s.Redeliveries,
		s.Coalesced, s.DupDropped, s.Forwarded, s.Misdropped, s.EpochRejected,
		math.Float64bits(s.DeltaShipped), math.Float64bits(s.DeltaFolded),
		uint64(len(s.Rejected)), // epoch-rejected seq records follow the outbound section
		s.CreditStalls, s.ShedCoalesced, s.SlowPeer)
	put(s.Epochs...)
	for i, d := range s.Docs {
		put(uint64(uint32(d)), math.Float64bits(s.Rank[i]), math.Float64bits(s.Acc[i]), math.Float64bits(s.Last[i]))
	}
	for _, e := range s.LastSeq {
		put(uint64(uint32(e.Src)), uint64(uint32(e.Dest)), e.Seq)
	}
	for _, ob := range s.Outbound {
		put(uint64(uint32(ob.Src)), uint64(uint32(ob.Dest)), ob.NextSeq,
			uint64(len(ob.Unacked)), uint64(len(ob.Pending)),
			ob.Window) // last advertised credit window
		for _, uf := range ob.Unacked {
			put(uf.Seq)
			putUpdates(uf.Updates)
		}
		putUpdates(ob.Pending)
	}
	for _, e := range s.Rejected {
		put(uint64(uint32(e.Src)), uint64(uint32(e.Dest)), e.Seq)
	}
	return bw.Flush()
}

func readU64(r io.Reader, vs ...*uint64) error {
	for _, v := range vs {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

// snapAllocCap bounds the initial capacity of any decoded slice so a
// corrupted count field costs at most a few kilobytes up front; the
// slices grow incrementally and a lying count dies on a short read
// long before it can exhaust memory.
const snapAllocCap = 4096

func capAlloc(n uint64) int {
	if n > snapAllocCap {
		return snapAllocCap
	}
	return int(n)
}

func readUpdates(r io.Reader) ([]p2p.Update, error) {
	var n uint64
	if err := readU64(r, &n); err != nil {
		return nil, err
	}
	if n > uint64(maxFrameBytes) {
		return nil, fmt.Errorf("wire: snapshot update list of %d entries exceeds limit", n)
	}
	us := make([]p2p.Update, 0, capAlloc(n))
	for i := uint64(0); i < n; i++ {
		var doc, bits uint64
		if err := readU64(r, &doc, &bits); err != nil {
			return nil, fmt.Errorf("wire: truncated snapshot update list: %w", err)
		}
		if doc > uint64(^uint32(0)) {
			return nil, fmt.Errorf("wire: snapshot update doc %d out of range", doc)
		}
		us = append(us, p2p.Update{Doc: graph.NodeID(uint32(doc)), Delta: math.Float64frombits(bits)})
	}
	return us, nil
}

// DecodeSnapshot parses a snapshot written by EncodeSnapshot. It is
// hardened against truncated and corrupted input: every count field is
// bounded, allocation grows incrementally rather than trusting counts,
// and any structural inconsistency (including trailing garbage) is an
// error rather than a silently misparsed snapshot.
func DecodeSnapshot(r io.Reader) (*PeerSnapshot, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("wire: reading snapshot magic: %w", err)
	}
	if string(magic) != peerSnapMagic {
		return nil, fmt.Errorf("wire: bad snapshot magic %q", magic)
	}
	var version, id, ndocs, nseq, nout, nepochs uint64
	var sent, processed, retries, reconnects, redeliveries, coalesced, dup uint64
	var fwd, misd, epochRej uint64
	var shippedBits, foldedBits uint64
	if err := readU64(br, &version, &id, &ndocs, &nseq, &nout, &nepochs,
		&sent, &processed, &retries, &reconnects, &redeliveries,
		&coalesced, &dup, &fwd, &misd, &epochRej, &shippedBits, &foldedBits); err != nil {
		return nil, fmt.Errorf("wire: reading snapshot header: %w", err)
	}
	if version < peerSnapMinVersion || version > peerSnapVersion {
		return nil, fmt.Errorf("wire: unsupported snapshot version %d (supported %d..%d)",
			version, peerSnapMinVersion, peerSnapVersion)
	}
	var nrej, creditStalls, shedCoalesced, slowPeer uint64
	if err := readU64(br, &nrej, &creditStalls, &shedCoalesced, &slowPeer); err != nil {
		return nil, fmt.Errorf("wire: reading snapshot header: %w", err)
	}
	if nrej > uint64(maxFrameBytes) {
		return nil, fmt.Errorf("wire: snapshot header sizes out of range")
	}
	if id > uint64(^uint32(0)>>1) {
		return nil, fmt.Errorf("wire: snapshot peer id %d out of range", id)
	}
	if ndocs > uint64(maxFrameBytes) || nseq > uint64(maxFrameBytes) || nout > uint64(maxFrameBytes) {
		return nil, fmt.Errorf("wire: snapshot header sizes out of range")
	}
	if nepochs > maxViewSlots {
		return nil, fmt.Errorf("wire: snapshot epoch vector of %d slots exceeds limit", nepochs)
	}
	s := &PeerSnapshot{
		ID:            p2p.PeerID(uint32(id)),
		Docs:          make([]graph.NodeID, 0, capAlloc(ndocs)),
		Rank:          make([]float64, 0, capAlloc(ndocs)),
		Acc:           make([]float64, 0, capAlloc(ndocs)),
		Last:          make([]float64, 0, capAlloc(ndocs)),
		LastSeq:       make([]SeqEntry, 0, capAlloc(nseq)),
		Sent:          sent,
		Processed:     processed,
		Retries:       retries,
		Reconnects:    reconnects,
		Redeliveries:  redeliveries,
		Coalesced:     coalesced,
		DupDropped:    dup,
		Forwarded:     fwd,
		Misdropped:    misd,
		EpochRejected: epochRej,
		CreditStalls:  creditStalls,
		ShedCoalesced: shedCoalesced,
		SlowPeer:      slowPeer,
		DeltaShipped:  math.Float64frombits(shippedBits),
		DeltaFolded:   math.Float64frombits(foldedBits),
	}
	if nepochs > 0 {
		s.Epochs = make([]uint64, 0, capAlloc(nepochs))
		for i := uint64(0); i < nepochs; i++ {
			var e uint64
			if err := readU64(br, &e); err != nil {
				return nil, fmt.Errorf("wire: reading snapshot epoch %d: %w", i, err)
			}
			s.Epochs = append(s.Epochs, e)
		}
	}
	for i := uint64(0); i < ndocs; i++ {
		var doc, rank, acc, last uint64
		if err := readU64(br, &doc, &rank, &acc, &last); err != nil {
			return nil, fmt.Errorf("wire: reading snapshot document %d: %w", i, err)
		}
		if doc > uint64(^uint32(0)) {
			return nil, fmt.Errorf("wire: snapshot document id %d out of range", doc)
		}
		s.Docs = append(s.Docs, graph.NodeID(uint32(doc)))
		s.Rank = append(s.Rank, math.Float64frombits(rank))
		s.Acc = append(s.Acc, math.Float64frombits(acc))
		s.Last = append(s.Last, math.Float64frombits(last))
	}
	for i := uint64(0); i < nseq; i++ {
		var src, dest, seq uint64
		if err := readU64(br, &src, &dest, &seq); err != nil {
			return nil, fmt.Errorf("wire: reading snapshot seq entry %d: %w", i, err)
		}
		if src > uint64(^uint32(0)>>1) || dest > uint64(^uint32(0)>>1) {
			return nil, fmt.Errorf("wire: snapshot seq entry peer id out of range")
		}
		s.LastSeq = append(s.LastSeq, SeqEntry{
			Src: p2p.PeerID(uint32(src)), Dest: p2p.PeerID(uint32(dest)), Seq: seq,
		})
	}
	for i := uint64(0); i < nout; i++ {
		var src, dest, nextSeq, nun, npend, window uint64
		if err := readU64(br, &src, &dest, &nextSeq, &nun, &npend, &window); err != nil {
			return nil, fmt.Errorf("wire: reading snapshot outbound %d: %w", i, err)
		}
		if window > uint64(maxFrameBytes) {
			return nil, fmt.Errorf("wire: snapshot outbound window out of range")
		}
		if src > uint64(^uint32(0)>>1) || dest > uint64(^uint32(0)>>1) {
			return nil, fmt.Errorf("wire: snapshot outbound peer id out of range")
		}
		if nun > uint64(maxFrameBytes) {
			return nil, fmt.Errorf("wire: snapshot outbound sizes out of range")
		}
		ob := OutboundState{
			Src: p2p.PeerID(uint32(src)), Dest: p2p.PeerID(uint32(dest)), NextSeq: nextSeq,
			Window: window,
		}
		for j := uint64(0); j < nun; j++ {
			var seq uint64
			if err := readU64(br, &seq); err != nil {
				return nil, fmt.Errorf("wire: reading snapshot frame seq: %w", err)
			}
			us, err := readUpdates(br)
			if err != nil {
				return nil, err
			}
			ob.Unacked = append(ob.Unacked, UnackedFrame{Seq: seq, Updates: us})
		}
		pend, err := readUpdates(br)
		if err != nil {
			return nil, err
		}
		if uint64(len(pend)) != npend {
			return nil, fmt.Errorf("wire: snapshot pending count mismatch")
		}
		ob.Pending = pend
		s.Outbound = append(s.Outbound, ob)
	}
	for i := uint64(0); i < nrej; i++ {
		var src, dest, seq uint64
		if err := readU64(br, &src, &dest, &seq); err != nil {
			return nil, fmt.Errorf("wire: reading snapshot rejected entry %d: %w", i, err)
		}
		if src > uint64(^uint32(0)>>1) || dest > uint64(^uint32(0)>>1) {
			return nil, fmt.Errorf("wire: snapshot rejected entry peer id out of range")
		}
		s.Rejected = append(s.Rejected, SeqEntry{
			Src: p2p.PeerID(uint32(src)), Dest: p2p.PeerID(uint32(dest)), Seq: seq,
		})
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("wire: trailing bytes after snapshot")
	}
	return s, nil
}
