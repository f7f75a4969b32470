package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"

	"wasmbench/internal/obsv"
)

// Server is the embeddable telemetry endpoint. It serves five routes:
//
//	/metrics        Prometheus text exposition of the hub's registry
//	/debug/trace    Chrome trace_event JSON of the flight window
//	                (?which=failure serves the last failure dump instead)
//	/debug/profile  folded stacks of the merged live profile
//	/debug/cells    JSON from the "cells" state provider (the harness
//	                publishes its run record there); any other
//	                published provider is reachable as /debug/<name>
//	/healthz        liveness probe
//
// Start binds a listener immediately (":0" picks a free port; Addr tells
// you which), so callers can scrape the moment Start returns. All
// handlers read concurrent-safe snapshots — scraping mid-sweep is the
// intended use.
type Server struct {
	hub *Hub
	ln  net.Listener
	srv *http.Server
}

// Handler returns the telemetry routes as an http.Handler, for embedding
// into an existing mux (ROADMAP item 2's benchserve daemon) or driving
// in-process from tests without a socket.
func Handler(h *Hub) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = h.Registry().WritePrometheus(w)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		var events []obsv.Event
		if r.URL.Query().Get("which") == "failure" {
			dump, _ := h.LastDump()
			if dump == nil {
				http.Error(w, "no failure dump recorded", http.StatusNotFound)
				return
			}
			events = dump.Events
		} else if h != nil {
			events = h.Flight.Events()
		}
		w.Header().Set("Content-Type", "application/json")
		_ = obsv.WriteChromeTrace(w, events, h.Profiles())
	})
	mux.HandleFunc("/debug/profile", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, p := range h.Profiles() {
			stack := p.Name
			if p.Track != "" {
				stack = p.Track + ";" + p.Name
			}
			if c := int64(p.SelfCycles + 0.5); c > 0 {
				fmt.Fprintf(w, "%s %d\n", stack, c)
			}
		}
	})
	mux.HandleFunc("/debug/", func(w http.ResponseWriter, r *http.Request) {
		name := strings.TrimPrefix(r.URL.Path, "/debug/")
		fn := h.Provider(name)
		if fn == nil {
			known := providerNames(h)
			http.Error(w, fmt.Sprintf("no state provider %q (published: %s)",
				name, strings.Join(known, ", ")), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(fn()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}

func providerNames(h *Hub) []string {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	names := make([]string, 0, len(h.providers))
	for n := range h.providers {
		names = append(names, n)
	}
	h.mu.Unlock()
	sort.Strings(names)
	return names
}

// Start binds addr and serves the hub's telemetry until Close. It returns
// once the listener is live; use Addr for the bound address when addr
// used port 0.
func Start(h *Hub, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		hub: h,
		ln:  ln,
		srv: &http.Server{
			Handler: Handler(h),
			// Every route serves a bounded in-memory snapshot, so generous
			// write budgets only guard against stuck clients, not slow
			// handlers. Keep-alives are reaped so a drain isn't held open
			// by idle scrapers.
			ReadHeaderTimeout: 5 * time.Second,
			WriteTimeout:      30 * time.Second,
			IdleTimeout:       60 * time.Second,
		},
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the listener's bound address (e.g. "127.0.0.1:43117").
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and in-flight handlers.
func (s *Server) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// Shutdown stops accepting connections and waits for in-flight handlers
// to finish, up to ctx's deadline; on expiry it falls back to Close so
// the caller's drain budget is always honored. Safe on a nil server.
func (s *Server) Shutdown(ctx context.Context) error {
	if s == nil || s.srv == nil {
		return nil
	}
	if err := s.srv.Shutdown(ctx); err != nil {
		closeErr := s.srv.Close()
		if closeErr != nil {
			return closeErr
		}
		return err
	}
	return nil
}
