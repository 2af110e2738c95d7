package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestPrometheusFamiliesWellFormed renders the one-process view and a
// three-node cluster view and checks the text format's grouping rule: each
// family is declared once and its samples follow its declaration without
// interruption. The cluster view carries every node's algorithm gauges.
func TestPrometheusFamiliesWellFormed(t *testing.T) {
	s := NewSet()
	populate(s)
	cc := NewClusterCollector(s)
	cc.Absorb(workerReport(t, "worker-0", 1, 1500))
	cc.Absorb(workerReport(t, "worker-1", 1, -800))

	var local, cluster bytes.Buffer
	WritePrometheus(&local, s.Snapshot())
	WriteClusterPrometheus(&cluster, cc.Snapshot())

	for view, text := range map[string]string{"local": local.String(), "cluster": cluster.String()} {
		declared := map[string]bool{}
		var fam, typ string
		for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
			if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
				fam, typ = f[2], f[3]
				if declared[fam] {
					t.Errorf("%s: family %s declared twice", view, fam)
				}
				declared[fam] = true
				continue
			}
			if strings.HasPrefix(line, "#") {
				continue
			}
			name := line[:strings.IndexAny(line, "{ ")]
			ok := name == fam
			if typ == "histogram" {
				ok = name == fam+"_bucket" || name == fam+"_sum" || name == fam+"_count"
			}
			if !ok {
				t.Errorf("%s: sample %q outside its family (current family %q)", view, line, fam)
			}
		}
		if len(declared) == 0 {
			t.Errorf("%s: no family declared", view)
		}
	}

	if want := `streampca_node_engine_sigma2{node="worker-0",engine="0"} `; !strings.Contains(cluster.String(), want) {
		t.Errorf("cluster view missing %q", want)
	}
}
