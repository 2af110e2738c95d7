package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func getBody(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(b)
}

func TestHandlerEndpoints(t *testing.T) {
	s := NewSet()
	populate(s)
	srv := httptest.NewServer(Handler(NewClusterCollector(s)))
	defer srv.Close()

	code, body := getBody(t, srv, "/")
	if code != 200 || !strings.Contains(body, "/metrics.json") {
		t.Errorf("index: %d %q", code, body)
	}

	code, body = getBody(t, srv, "/metrics")
	if code != 200 || !strings.Contains(body, "streampca_engine_sigma2") {
		t.Errorf("/metrics: %d missing sigma2 (%d bytes)", code, len(body))
	}

	code, body = getBody(t, srv, "/metrics.json")
	if code != 200 {
		t.Fatalf("/metrics.json: %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json not a Snapshot: %v", err)
	}
	if len(snap.Engines) != 1 || snap.Engines[0].Sigma2 != 1.25 {
		t.Errorf("json snapshot engines = %+v", snap.Engines)
	}

	code, body = getBody(t, srv, "/journal?max=1")
	if code != 200 {
		t.Fatalf("/journal: %d", code)
	}
	var jr struct {
		Len    int         `json:"len"`
		Events []EventView `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &jr); err != nil {
		t.Fatalf("/journal not JSON: %v", err)
	}
	if jr.Len != 2 || len(jr.Events) != 1 {
		t.Errorf("/journal = %+v", jr)
	}
	if code, _ := getBody(t, srv, "/journal?max=bogus"); code != 400 {
		t.Errorf("bad max should 400, got %d", code)
	}

	code, body = getBody(t, srv, "/trace.json")
	if code != 200 {
		t.Fatalf("/trace.json: %d", code)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/trace.json not JSON: %v", err)
	}
	if _, ok := doc["traceEvents"].([]any); !ok {
		t.Error("trace.json missing traceEvents array")
	}

	// A single process is a cluster of one node.
	code, body = getBody(t, srv, "/cluster/metrics")
	if code != 200 || !strings.Contains(body, "streampca_cluster_nodes 1\n") ||
		!strings.Contains(body, `streampca_node_engine_sigma2{node="coordinator",engine="0"} 1.25`) {
		t.Errorf("/cluster/metrics: %d not a cluster of one (%d bytes)", code, len(body))
	}

	code, body = getBody(t, srv, "/debug/pprof/cmdline")
	if code != 200 || body == "" {
		t.Errorf("/debug/pprof/cmdline: %d", code)
	}

	if code, _ := getBody(t, srv, "/nope"); code != 404 {
		t.Errorf("unknown path should 404, got %d", code)
	}
}

func TestServeBindsAndServes(t *testing.T) {
	s := NewSet()
	populate(s)
	srv, err := Serve("127.0.0.1:0", NewClusterCollector(s))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatalf("GET against Serve addr: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}
