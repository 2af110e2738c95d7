package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// Handler returns the observability HTTP surface over cc. Every request
// reads a fresh snapshot.
//
//	/                      index of endpoints
//	/metrics               the local set in Prometheus text format
//	/metrics.json          the local set's Snapshot as JSON
//	/journal               the local journal as JSON (?max=N for newest N)
//	/trace.json            Chrome trace-event export of the local spans + journal
//	/cluster/metrics       every node in Prometheus text format, node-labeled
//	/cluster/metrics.json  the merged ClusterSnapshot as JSON
//	/cluster/trace.json    the merged skew-corrected Chrome trace
//	/debug/pprof/          standard pprof handlers
//
// A detached collector (nil local set) serves only the /cluster/ endpoints
// and pprof.
func Handler(cc *ClusterCollector) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "streampca observability endpoints:")
		fmt.Fprintln(w, "  /metrics               Prometheus text format")
		fmt.Fprintln(w, "  /metrics.json          full snapshot as JSON")
		fmt.Fprintln(w, "  /journal               control-plane event journal (?max=N)")
		fmt.Fprintln(w, "  /trace.json            Chrome trace-event export (chrome://tracing)")
		fmt.Fprintln(w, "  /cluster/metrics       every node, Prometheus text with node labels")
		fmt.Fprintln(w, "  /cluster/metrics.json  merged cluster snapshot as JSON")
		fmt.Fprintln(w, "  /cluster/trace.json    merged skew-corrected Chrome trace")
		fmt.Fprintln(w, "  /debug/pprof/          runtime profiles")
	})

	if set := cc.local; set != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			WritePrometheus(w, set.Snapshot())
		})
		mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, set.Snapshot())
		})
		mux.HandleFunc("/journal", func(w http.ResponseWriter, r *http.Request) {
			max := 0
			if q := r.URL.Query().Get("max"); q != "" {
				n, err := strconv.Atoi(q)
				if err != nil || n < 0 {
					http.Error(w, "max must be a non-negative integer", http.StatusBadRequest)
					return
				}
				max = n
			}
			j := set.Journal()
			writeJSON(w, struct {
				Len     int         `json:"len"`
				Dropped int64       `json:"dropped"`
				Events  []EventView `json:"events"`
			}{j.Len(), j.Dropped(), viewEvents(j.Events(max))})
		})
		mux.HandleFunc("/trace.json", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = WriteTrace(w, set)
		})
	}

	mux.HandleFunc("/cluster/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteClusterPrometheus(w, cc.Snapshot())
	})
	mux.HandleFunc("/cluster/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, cc.Snapshot())
	})
	mux.HandleFunc("/cluster/trace.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = cc.WriteTrace(w)
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	return mux
}

// writeJSON serves v as indented JSON.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Serve listens on addr and serves Handler(cc) until the returned server is
// closed. It returns once the listener is bound, so a caller that curls the
// returned address immediately will connect. The bound address (useful with
// ":0") is Addr on the returned server.
func Serve(addr string, cc *ClusterCollector) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: Handler(cc)}
	go func() {
		_ = srv.Serve(ln)
	}()
	return srv, nil
}
