package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"testing"
	"time"

	"dpr/internal/graph"
	"dpr/internal/p2p"
	"dpr/internal/solver"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameBatchEpoch, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != frameBatchEpoch || string(payload) != "hello" {
		t.Fatalf("round trip: %c %q", typ, payload)
	}
	// Empty payload.
	if err := writeFrame(&buf, framePing, nil); err != nil {
		t.Fatal(err)
	}
	typ, payload, err = readFrame(&buf)
	if err != nil || typ != framePing || len(payload) != 0 {
		t.Fatalf("empty frame: %c %v %v", typ, payload, err)
	}
}

func TestFrameRejectsHugeLength(t *testing.T) {
	raw := []byte{0xff, 0xff, 0xff, 0xff, 'E'}
	if _, _, err := readFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("accepted 4GB frame header")
	}
}

func TestBatchCodec(t *testing.T) {
	in := []p2p.Update{{Doc: 7, Delta: 0.125}, {Doc: 1 << 20, Delta: -3.5}}
	out, err := decodeBatch(encodeBatch(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("batch round trip: %v", out)
	}
	if _, err := decodeBatch([]byte{1, 2}); err == nil {
		t.Fatal("accepted short batch")
	}
	if _, err := decodeBatch(append(encodeBatch(in), 0)); err == nil {
		t.Fatal("accepted trailing bytes")
	}
}

func TestSnapshotCodec(t *testing.T) {
	s, p, err := decodeSnapshot(encodeSnapshot(42, 41))
	if err != nil || s != 42 || p != 41 {
		t.Fatalf("snapshot: %d %d %v", s, p, err)
	}
	if _, _, err := decodeSnapshot([]byte{1}); err == nil {
		t.Fatal("accepted short snapshot")
	}
}

func TestRanksCodec(t *testing.T) {
	docs := []graph.NodeID{0, 3}
	ranks := []float64{1.5, 2.5}
	out := make([]float64, 4)
	n, err := decodeRanks(encodeRanks(docs, ranks), out)
	if err != nil || n != 2 {
		t.Fatal(err)
	}
	if out[0] != 1.5 || out[3] != 2.5 {
		t.Fatalf("ranks: %v", out)
	}
	// Out-of-range doc rejected.
	if _, err := decodeRanks(encodeRanks([]graph.NodeID{99}, []float64{1}), out); err == nil {
		t.Fatal("accepted unknown doc")
	}
}

func TestClusterComputesPagerankOverTCP(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(800, 121))
	c, err := NewCluster(g, ClusterConfig{Peers: 6, Epsilon: 1e-6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages == 0 || res.Probes == 0 {
		t.Fatalf("missing stats: %+v", res)
	}
	ref, err := solver.Power(g, solver.Config{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i := range ref.Ranks {
		rel := math.Abs(res.Ranks[i]-ref.Ranks[i]) / ref.Ranks[i]
		if rel > worst {
			worst = rel
		}
	}
	if worst > 1e-3 {
		t.Fatalf("TCP cluster max relative error %v", worst)
	}
}

func TestClusterTightThresholdSmallGraph(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(150, 122))
	c, err := NewCluster(g, ClusterConfig{Peers: 3, Epsilon: 1e-7, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := solver.Power(g, solver.Config{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Ranks {
		if math.Abs(res.Ranks[i]-ref.Ranks[i])/ref.Ranks[i] > 1e-4 {
			t.Fatalf("rank[%d]: %v vs %v", i, res.Ranks[i], ref.Ranks[i])
		}
	}
}

func TestClusterSinglePeer(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.Cycle(20)
	c, err := NewCluster(g, ClusterConfig{Peers: 1, Epsilon: 1e-8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Ranks {
		if math.Abs(r-1) > 1e-5 {
			t.Fatalf("rank[%d] = %v", i, r)
		}
	}
}

func TestClusterEdgelessGraphTerminates(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.NewBuilder(10).Build()
	c, err := NewCluster(g, ClusterConfig{Peers: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Ranks {
		if math.Abs(r-0.15) > 1e-12 {
			t.Fatalf("rank[%d] = %v, want 0.15", i, r)
		}
	}
}

func TestClusterValidation(t *testing.T) {
	g := graph.Cycle(4)
	if _, err := NewCluster(g, ClusterConfig{Peers: 0}); err == nil {
		t.Fatal("accepted zero peers")
	}
}

// TestHTTPClusterValidation checks that a cluster or peer set up over
// HTTPTransport rejects the same bad configurations as one over TCP.
func TestHTTPClusterValidation(t *testing.T) {
	g := graph.Cycle(3)
	if _, err := NewCluster(g, ClusterConfig{Peers: 0, Transport: HTTPTransport()}); err == nil {
		t.Fatal("accepted zero peers")
	}
	if _, err := NewPeer(PeerConfig{Transport: HTTPTransport()}); err == nil {
		t.Fatal("accepted nil graph")
	}
}

func TestPeerRejectsGarbageConnection(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.Cycle(4)
	docPeer := make([]p2p.PeerID, 4)
	p, err := NewPeer(PeerConfig{Graph: g, DocPeer: docPeer, Docs: []graph.NodeID{0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// A client speaking garbage gets dropped without harming the peer.
	conn, err := net.DialTimeout("tcp", p.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte{1, 0, 0, 0, 'Z', 0})
	conn.Close()
	// Peer still answers probes.
	s, pr, err := probePeer(nil, p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	_ = s
	_ = pr
}

// TestStopFrameIsProtocolViolation checks that no frame from the
// network can stop a peer: a remote stop would halt the processing
// loop while the listener stayed open, leaving a half-dead peer the
// cluster still counts as live. 'X' is an unknown frame type, so the
// peer drops that connection and the cluster still quiesces at the
// centralized ranks.
func TestStopFrameIsProtocolViolation(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(300, 37))
	c, err := NewCluster(g, ClusterConfig{Peers: 3, Epsilon: 1e-6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn, err := net.DialTimeout("tcp", c.slots().addrs[1], time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeFrame(conn, 'X', nil); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("peer kept the connection open after an 'X' frame: %v", err)
	}
	res, err := c.Run(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	assertRanksMatch(t, g, res.Ranks, 1e-3)
	assertNoMassLost(t, res)
}

// TestHTTPUpgradeHandshake drives the accept side of the HTTP upgrade
// with raw requests — a wrong path is answered 404 and a request
// without the Upgrade header 400, both followed by a close — and then
// runs the whole cluster over HTTPTransport, so every peer-to-peer
// frame, probe and rank collection rides an upgraded connection.
func TestHTTPUpgradeHandshake(t *testing.T) {
	defer assertNoGoroutineLeaks(t)()
	g := graph.MustGeneratePowerLaw(graph.DefaultPowerLawConfig(400, 131))
	c, err := NewCluster(g, ClusterConfig{Peers: 3, Epsilon: 1e-6, Seed: 1, Transport: HTTPTransport()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr := c.slots().addrs[0]
	reject := func(t *testing.T, req string, want int) {
		t.Helper()
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.WriteString(conn, req); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("status %d, want %d", resp.StatusCode, want)
		}
		if _, err := br.ReadByte(); err != io.EOF {
			t.Fatalf("connection still open after a rejected handshake: %v", err)
		}
	}
	t.Run("bad_path", func(t *testing.T) {
		reject(t, "GET /index.html HTTP/1.1\r\nHost: x\r\nConnection: Upgrade\r\nUpgrade: "+upgradeProtocol+"\r\n\r\n",
			http.StatusNotFound)
	})
	t.Run("missing_upgrade", func(t *testing.T) {
		reject(t, "GET "+upgradePath+" HTTP/1.1\r\nHost: x\r\n\r\n", http.StatusBadRequest)
	})
	t.Run("dial_side", func(t *testing.T) {
		// A fake server that checks the request, then answers with the
		// 101 and a first frame in one write: the frame lands in the
		// dialer's response buffer and must still be read off the conn.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		errc := make(chan error, 1)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				errc <- err
				return
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			req, err := http.ReadRequest(bufio.NewReader(conn))
			if err != nil {
				errc <- err
				return
			}
			if req.URL.Path != upgradePath || req.Header.Get("Upgrade") != upgradeProtocol {
				errc <- fmt.Errorf("unexpected request %s %v", req.URL, req.Header)
				return
			}
			var out bytes.Buffer
			out.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + upgradeProtocol + "\r\n\r\n")
			writeFrame(&out, frameSnapResp, encodeSnapshot(3, 2))
			_, err = conn.Write(out.Bytes())
			errc <- err
		}()
		conn, err := HTTPTransport().Dial(Observer, Observer, ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		typ, payload, err := readFrame(conn)
		if err != nil || typ != frameSnapResp {
			t.Fatalf("first frame after the 101: %c %v", typ, err)
		}
		if sent, processed, err := decodeSnapshot(payload); err != nil || sent != 3 || processed != 2 {
			t.Fatalf("snapshot %d/%d %v", sent, processed, err)
		}
	})
	t.Run("good_handshake", func(t *testing.T) {
		res, err := c.Run(60 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if res.Messages == 0 || res.Probes == 0 {
			t.Fatalf("missing stats: %+v", res)
		}
		assertRanksMatch(t, g, res.Ranks, 1e-3)
		assertNoMassLost(t, res)
	})
}
