package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// DebugServer is the opt-in observability listener the cluster
// frontends expose: /metrics serves the plain-text exposition of a
// snapshot, /trace the recent convergence events as JSON
// (?n=K limits the event count), and /debug/pprof/* the standard
// runtime profiles. It binds its own mux so enabling it never touches
// http.DefaultServeMux, which belongs to the embedding program.
type DebugServer struct {
	srv  *http.Server
	ln   net.Listener
	done chan struct{}
}

// ServeDebug starts a debug listener on addr (host:port; use port 0
// for an ephemeral port). snap is called per /metrics request, so the
// page always shows live values; trace may be nil, which turns /trace
// into an empty document.
func ServeDebug(addr string, snap func() Snapshot, trace *Trace) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = snap().RenderText(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		n := 0
		if q := r.URL.Query().Get("n"); q != "" {
			if v, err := strconv.Atoi(q); err == nil {
				n = v
			}
		}
		if trace == nil {
			fmt.Fprint(w, `{"len":0,"cap":0,"events":[]}`+"\n")
			return
		}
		_ = trace.WriteTraceJSON(w, n)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	d := &DebugServer{
		srv:  &http.Server{Handler: mux},
		ln:   ln,
		done: make(chan struct{}),
	}
	go d.serve()
	return d, nil
}

// serve runs the listener until Close. A named method (not a closure)
// so the goroutine-leak checks can recognise a lingering server by its
// stack frame.
func (d *DebugServer) serve() {
	defer close(d.done)
	_ = d.srv.Serve(d.ln)
}

// Addr returns the bound listen address.
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close shuts the listener down and waits for the serve goroutine to
// exit. Safe to call more than once.
func (d *DebugServer) Close() error {
	err := d.srv.Close()
	<-d.done
	return err
}
