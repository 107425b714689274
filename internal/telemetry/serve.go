package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"time"
)

// Server exposes a plane over HTTP: /metrics in Prometheus text format. It is
// self-hosted (its own mux and listener, never the process-global http
// registry) and reads only atomic snapshots, so it is safe to scrape mid-run.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the exposition server on addr (":0" picks a free port; read
// it back with Addr). The returned server runs until Close.
func Serve(addr string, p *Plane) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		p.WritePrometheus(w)
	})
	s := &Server{
		ln: ln,
		srv: &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
		},
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the listener down.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
