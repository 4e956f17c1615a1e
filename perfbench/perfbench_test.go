package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/query"
)

// miniature is a run small enough for a unit test.
func miniature() sizes {
	return sizes{
		powerN: 400, powerM: 5,
		roadN: 400, roadShortcut: 0.02,
		ingestN: 2000, ingestM: 4,
		batch: 10, limit: 10,
		minSetups: 1, maxSetups: 2, setupBudget: time.Millisecond,
		churnWarmRounds: 2,
		ingestWarm:      5,
		churnChunk:      300,
		ingestChunk:     2000,
	}
}

// benchmarkJSON is the part of BENCHMARK.json the self-test reads.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func runMini(t *testing.T, workload string, trace int, oracle countOracle) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", fmt.Sprint(trace), "--workdir", t.TempDir()}
	code := run(args, &stdout, &stderr, miniature(), oracle)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace %d: last line is not a result: %v\nstderr: %s", workload, trace, err, stderr.String())
	}
	return code, res, stderr.String()
}

// TestEveryMetricEmitted runs every workload of BENCHMARK.json at miniature
// size, untraced and traced, and checks that each prints exactly the
// metrics BENCHMARK.json names for that mode, with their units, and passes
// its checks.
func TestEveryMetricEmitted(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		pw, err := findWorkload(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		if pw.why != w.Why {
			t.Errorf("%s: why differs from BENCHMARK.json:\n%q\n%q", w.Name, pw.why, w.Why)
		}
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s is not in BENCHMARK.json", w.name)
		}
	}
	for trace, want := range [][]struct{ Name, Unit string }{bj.EndToEnd, bj.PerLayer} {
		for _, w := range bj.Workloads {
			code, res, stderr := runMini(t, w.Name, trace, baseline.GroundTruthCount)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: exit %d, result %+v\n%s", w.Name, trace, code, res, stderr)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestWrongExpectedCountFails feeds the gate an oracle that is off by one
// and expects the command to report the failures and exit non-zero.
func TestWrongExpectedCountFails(t *testing.T) {
	wrong := func(g *graph.Graph, q *query.Query) uint64 { return baseline.GroundTruthCount(g, q) + 1 }
	for _, w := range []string{"count-road", "count-powerlaw"} {
		code, res, _ := runMini(t, w, 0, wrong)
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s with a wrong oracle: exit %d, result %+v", w, code, res)
		}
	}
}

// TestSeedsGiveDifferentGraphs checks that the seed fixes the inputs and
// that two seeds give different graphs of the same size class.
func TestSeedsGiveDifferentGraphs(t *testing.T) {
	count := func(*graph.Graph, *query.Query) uint64 { return 0 }
	edges := func(g *graph.Graph) string {
		var b strings.Builder
		if err := g.WriteEdgeList(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, w := range workloads {
		a, again, b := prepare(w, 1, miniature(), count), prepare(w, 1, miniature(), count), prepare(w, 2, miniature(), count)
		ga, gb := a.graph(), b.graph()
		if edges(ga) != edges(again.graph()) || !slices.Equal(a.stream, again.stream) {
			t.Errorf("%s: one seed gave two different inputs", w.name)
		}
		if edges(ga) == edges(gb) {
			t.Errorf("%s: seeds 1 and 2 gave the same graph", w.name)
		}
		ea, eb := float64(ga.NumEdges()), float64(gb.NumEdges())
		if ga.NumVertices() != gb.NumVertices() || eb < 0.9*ea || eb > 1.1*ea {
			t.Errorf("%s: seed 1 gave |V|=%d |E|=%v, seed 2 |V|=%d |E|=%v", w.name, ga.NumVertices(), ea, gb.NumVertices(), eb)
		}
	}
}

// TestFeedNetsOutRepeatedEdges checks the Delta a batch becomes when it
// touches one edge twice: insert-then-delete cancels, delete-then-insert
// leaves the edge in place, and the replay agrees.
func TestFeedNetsOutRepeatedEdges(t *testing.T) {
	base := graph.FromEdges([][2]graph.VertexID{{0, 1}, {1, 2}})
	f := &feed{base: base, over: map[edge]bool{}, edges: base.NumEdges(), ops: []gen.Update{
		{U: 2, V: 3}, {Del: true, U: 3, V: 2}, // inserted, then deleted
		{Del: true, U: 0, V: 1}, {U: 1, V: 0}, // deleted, then inserted
		{Del: true, U: 1, V: 2}, {U: 0, V: 2},
	}}
	d := f.next(6)
	if !slices.Equal(d.Insert, [][2]graph.VertexID{{0, 2}}) || !slices.Equal(d.Delete, [][2]graph.VertexID{{1, 2}}) {
		t.Errorf("delta %+v", d)
	}
	if !f.has(0, 1) || f.has(2, 3) || f.has(1, 2) || !f.has(2, 0) || f.edges != 2 {
		t.Errorf("replay: edges %d, over %v", f.edges, f.over)
	}
}
