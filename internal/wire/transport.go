package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"dpr/internal/p2p"
)

// Transport sits between peers and the operating system's network
// stack: every outbound connection a peer (or the cluster's
// termination prober) opens goes through Dial. The indirection exists
// so tests can substitute a FaultTransport that drops, delays,
// duplicates and resets connections or partitions peer pairs — the
// failure schedules of the paper's dynamic-network protocol — while
// production code uses the real dialer.
//
// from and to identify the dialing and target peers so fault
// injectors can scope failures to specific pairs; Observer marks
// connections made by non-peer roles (termination probes, rank
// collectors), which fault injectors leave untouched.
type Transport interface {
	Dial(from, to p2p.PeerID, addr string) (net.Conn, error)
}

// Observer is the PeerID used by non-peer dialers.
const Observer p2p.PeerID = -1

// dialTimeout bounds connection establishment for the real dialers,
// the HTTP upgrade handshake included.
const dialTimeout = 5 * time.Second

// tcpTransport is the production Transport: a plain TCP dialer.
type tcpTransport struct{}

func (tcpTransport) Dial(_, _ p2p.PeerID, addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, dialTimeout)
}

// TCPDialer returns the production Transport backed by net.Dial.
func TCPDialer() Transport { return tcpTransport{} }

// The paper's section 8 deployment — web servers exchanging update
// messages over HTTP — runs on the same Peer as the TCP one: an HTTP
// client opens the connection with an ordinary GET carrying an Upgrade
// request, the peer answers 101 Switching Protocols, and from then on
// the connection carries the binary frame protocol unchanged. Every
// peer listener accepts both: "GET " read as a little-endian frame
// length is about 542 MB, far above maxFrameBytes, so no valid frame
// stream can start with it.
const (
	upgradePath     = "/pagerank"
	upgradeProtocol = "dpr-frames/1"
	httpPrefix      = "GET "
)

// httpTransport dials peers through the HTTP upgrade handshake.
type httpTransport struct{}

func (httpTransport) Dial(_, _ p2p.PeerID, addr string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	c, err := clientUpgrade(conn, addr)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// HTTPTransport returns a Transport whose connections open with an
// HTTP/1.1 Upgrade handshake to the peer's /pagerank endpoint, then
// carry the frame protocol. Peers accept it on their ordinary
// listener, so a cluster switches to HTTP by this one setting.
func HTTPTransport() Transport { return httpTransport{} }

// clientUpgrade performs the dialing side of the handshake under a
// deadline and returns a connection that first replays any bytes the
// response reader buffered past the 101 reply.
func clientUpgrade(conn net.Conn, host string) (net.Conn, error) {
	conn.SetDeadline(time.Now().Add(dialTimeout))
	defer conn.SetDeadline(time.Time{})
	req := "GET " + upgradePath + " HTTP/1.1\r\nHost: " + host +
		"\r\nConnection: Upgrade\r\nUpgrade: " + upgradeProtocol + "\r\n\r\n"
	if _, err := io.WriteString(conn, req); err != nil {
		return nil, err
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols {
		return nil, fmt.Errorf("wire: %s refused the upgrade: %s", host, resp.Status)
	}
	return withPrefix(conn, br), nil
}

// serverUpgrade answers an HTTP upgrade request whose first bytes
// (pre) were already consumed by the caller's peek. It returns the
// connection ready for the frame loop, or an error after answering
// 404 for a wrong path or 400 for a malformed or non-upgrade request.
func serverUpgrade(conn net.Conn, pre []byte) (net.Conn, error) {
	conn.SetDeadline(time.Now().Add(dialTimeout))
	defer conn.SetDeadline(time.Time{})
	br := bufio.NewReader(io.MultiReader(bytes.NewReader(pre), conn))
	req, err := http.ReadRequest(br)
	status := http.StatusSwitchingProtocols
	switch {
	case err != nil:
		status = http.StatusBadRequest
	case req.URL.Path != upgradePath:
		status = http.StatusNotFound
	case !headerHasToken(req.Header, "Connection", "upgrade") ||
		!headerHasToken(req.Header, "Upgrade", upgradeProtocol):
		status = http.StatusBadRequest
	}
	if status != http.StatusSwitchingProtocols {
		fmt.Fprintf(conn, "HTTP/1.1 %d %s\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
			status, http.StatusText(status))
		return nil, fmt.Errorf("wire: rejected HTTP request with %d", status)
	}
	if _, err := io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+
		upgradeProtocol+"\r\n\r\n"); err != nil {
		return nil, err
	}
	return withPrefix(conn, br), nil
}

// headerHasToken reports whether a comma-separated header lists token
// (case-insensitively).
func headerHasToken(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		for _, t := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(t), token) {
				return true
			}
		}
	}
	return false
}

// withPrefix returns conn, replaying first whatever br buffered past
// the handshake.
func withPrefix(conn net.Conn, br *bufio.Reader) net.Conn {
	n := br.Buffered()
	if n == 0 {
		return conn
	}
	pre, _ := br.Peek(n)
	return &prefixConn{Conn: conn, pre: pre}
}

// prefixConn replays bytes already read off a connection before
// reading from the connection itself.
type prefixConn struct {
	net.Conn
	pre []byte
}

func (c *prefixConn) Read(b []byte) (int, error) {
	if len(c.pre) > 0 {
		n := copy(b, c.pre)
		c.pre = c.pre[n:]
		return n, nil
	}
	return c.Conn.Read(b) //dpr:nodeadline passthrough wrapper: the caller's deadline is set on the wrapped conn and applies here
}
