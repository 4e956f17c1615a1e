package main

import (
	"fmt"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/query"
)

// sizes fixes how big a run's inputs are and how it sets up. The benchmark
// uses defaultSizes; the self-test shrinks them to a miniature.
type sizes struct {
	powerN, powerM  int           // count-powerlaw and serve-churn: gen.PowerLaw(powerN, powerM, seed)
	roadN           int           // count-road: gen.Road(roadN, roadShortcut, seed)
	roadShortcut    float64       //
	ingestN         int           // ingest: gen.PowerLaw(ingestN, ingestM, seed)
	ingestM         int           //
	batch           int           // update-stream operations per Apply
	limit           int           // k of serve-churn's Limit(k) queries
	minSetups       int           // System constructions per run: at least minSetups,
	maxSetups       int           // and up to maxSetups while their total stays under
	setupBudget     time.Duration // setupBudget; setup_s is their median
	churnWarmRounds int           // untimed serve-churn rounds after each construction
	ingestWarm      int           // untimed ingest Applies after each construction
	churnChunk      int           // update-stream operations generated at a time
	ingestChunk     int           //
}

func defaultSizes() sizes {
	return sizes{
		powerN: 10000, powerM: 12,
		roadN: 40000, roadShortcut: 0.02,
		ingestN: 100000, ingestM: 9,
		batch: 10, limit: 10,
		minSetups:       3,
		maxSetups:       7,
		setupBudget:     2 * time.Second,
		churnWarmRounds: 30,
		ingestWarm:      200,
		churnChunk:      30000,
		ingestChunk:     100000,
	}
}

// namedQuery is one entry of a workload's query list.
type namedQuery struct {
	name string
	q    *query.Query
}

// countQueries is the query list of the count-* workloads; churnQueries that
// of serve-churn. Each is run in this order once per round.
func countQueries() []namedQuery {
	return []namedQuery{{"triangle", query.Triangle()}, {"q1", query.Q1()}, {"q2", query.Q2()}, {"q3", query.Q3()}}
}

func churnQueries() []namedQuery {
	return []namedQuery{{"triangle", query.Triangle()}, {"q1", query.Q1()}, {"q2", query.Q2()}, {"q8", query.Q8()}}
}

// workload describes one benchmark workload. why is the same text as the
// workload's "why" in BENCHMARK.json.
type workload struct {
	name string
	why  string
	kind int // countKind, churnKind or ingestKind
}

const (
	countKind = iota
	churnKind
	ingestKind
)

var workloads = []workload{
	{"count-powerlaw", "CountOnly passes over triangle/q1/q2/q3 on a hub-heavy power-law graph: engine, kernels (bitset paths fire), pulls and LRBU cache do the work; plan cache always hits", countKind},
	{"count-road", "the same passes on a hub-free road grid (max degree 8): no bitset kernel can fire and intersections are tiny, so scheduling, pulls and pushes dominate; control for kernel changes", countKind},
	{"serve-churn", "durable System with a standing triangle subscription; each round Applies 10 updates then runs four Limit(10) queries: serving layer, optimiser, WAL, compaction, delta maintenance", churnKind},
	{"ingest", "in-memory System on a 100K-vertex power-law graph taking 10-op Applies only: Apply cost that grows with |V| (graph.Apply, repartition) rather than with the delta shows here", ingestKind},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs are a run's generated inputs and the oracle results the checks
// compare against. They are made from the seed alone, before and outside
// any timing.
type inputs struct {
	w       workload
	seed    int64
	sz      sizes
	graph   func() *graph.Graph // a fresh copy of the run's graph, so no System inherits another's lazily built state
	info    graphInfo
	queries []namedQuery

	// count-*: the oracle's count per query, and its time.
	expected map[string]uint64
	oracleMS map[string]float64

	// serve-churn: the oracle's triangle count on the initial graph.
	triangles0 uint64

	// serve-churn and ingest: the first chunk of the update stream, and the
	// size of each chunk.
	stream []gen.Update
	chunk  int

	warmRounds int // untimed rounds after each construction
}

type graphInfo struct {
	Name         string `json:"name"`
	Vertices     int    `json:"vertices"`
	Edges        uint64 `json:"edges"`
	Hubs         int    `json:"hubs"`
	HubMinDegree int    `json:"hub_min_degree"`
	MaxDegree    int    `json:"max_degree"`
}

func describe(name string, g *graph.Graph) graphInfo {
	return graphInfo{name, g.NumVertices(), g.NumEdges(), g.NumHubs(), g.HubMinDegree(), g.MaxDegree()}
}

// countOracle gives the expected match count of q on g.
type countOracle func(g *graph.Graph, q *query.Query) uint64

func prepare(w workload, seed int64, sz sizes, oracle countOracle) *inputs {
	in := &inputs{w: w, seed: seed, sz: sz}
	var name string
	switch w.name {
	case "count-powerlaw", "serve-churn":
		name = fmt.Sprintf("gen.PowerLaw(%d, %d, %d)", sz.powerN, sz.powerM, seed)
		in.graph = func() *graph.Graph { return gen.PowerLaw(sz.powerN, sz.powerM, seed) }
	case "count-road":
		name = fmt.Sprintf("gen.Road(%d, %g, %d)", sz.roadN, sz.roadShortcut, seed)
		in.graph = func() *graph.Graph { return gen.Road(sz.roadN, sz.roadShortcut, seed) }
	case "ingest":
		name = fmt.Sprintf("gen.PowerLaw(%d, %d, %d)", sz.ingestN, sz.ingestM, seed)
		in.graph = func() *graph.Graph { return gen.PowerLaw(sz.ingestN, sz.ingestM, seed) }
	}
	g := in.graph()
	in.info = describe(name, g)
	in.warmRounds = 1
	switch w.kind {
	case countKind:
		in.queries = countQueries()
		in.expected = map[string]uint64{}
		in.oracleMS = map[string]float64{}
		for _, nq := range in.queries {
			start := time.Now()
			in.expected[nq.name] = oracle(g, nq.q)
			in.oracleMS[nq.name] = ms(time.Since(start))
		}
	case churnKind:
		in.queries = churnQueries()
		in.triangles0 = oracle(g, query.Triangle())
		in.chunk, in.warmRounds = sz.churnChunk, sz.churnWarmRounds
	case ingestKind:
		in.chunk, in.warmRounds = sz.ingestChunk, sz.ingestWarm
	}
	if in.chunk > 0 {
		in.stream = gen.UpdateStream(g, in.chunk, seed)
	}
	return in
}

// edge is a canonical undirected edge, smaller endpoint first.
type edge = [2]graph.VertexID

func canon(u, v graph.VertexID) edge {
	if u > v {
		u, v = v, u
	}
	return edge{u, v}
}

// feed hands one client the update stream in Apply-sized batches and keeps
// the benchmark's own replay of it: the initial graph plus every edge the
// stream has touched. The replay, not the System under test, is the oracle
// for every graph-dependent check.
type feed struct {
	base  *graph.Graph
	over  map[edge]bool // edges the stream touched -> present now
	edges uint64        // current edge count
	ops   []gen.Update
	pos   int
	chunk int
	seed  int64
	gens  int64
}

func newFeed(in *inputs) *feed {
	base := in.graph()
	return &feed{base: base, over: map[edge]bool{}, edges: base.NumEdges(), ops: in.stream, chunk: in.chunk, seed: in.seed}
}

func (f *feed) has(u, v graph.VertexID) bool {
	if p, ok := f.over[canon(u, v)]; ok {
		return p
	}
	return f.inBase(u, v)
}

func (f *feed) inBase(u, v graph.VertexID) bool {
	n := graph.VertexID(f.base.NumVertices())
	return u < n && v < n && f.base.HasEdge(u, v)
}

// current materialises the replayed graph.
func (f *feed) current() *graph.Graph {
	edges := make([][2]graph.VertexID, 0, f.edges)
	for v := 0; v < f.base.NumVertices(); v++ {
		for _, w := range f.base.Neighbors(graph.VertexID(v)) {
			e := edge{graph.VertexID(v), w}
			if e[0] < e[1] {
				if p, ok := f.over[e]; !ok || p {
					edges = append(edges, e)
				}
			}
		}
	}
	for e, p := range f.over {
		if p && !f.inBase(e[0], e[1]) {
			edges = append(edges, e)
		}
	}
	return graph.FromEdges(edges)
}

// next returns the Delta of the next n stream operations and advances the
// replay. A batch may touch one edge more than once, but a Delta states
// only the net change (Apply reads an edge in both Insert and Delete as
// present), so each edge's first and last operation decide: the stream
// only inserts absent edges and deletes present ones, so the first tells
// the state before the batch and the last the state after it. When the
// stream runs out, the next chunk is generated from the replayed graph with
// a seed derived from the run's, so a seed still fixes every input.
func (f *feed) next(n int) graph.Delta {
	if f.pos+n > len(f.ops) {
		f.gens++
		f.ops = gen.UpdateStream(f.current(), f.chunk, f.seed+f.gens*7919)
		f.pos = 0
	}
	batch := f.ops[f.pos : f.pos+n]
	f.pos += n
	type change struct{ first, last bool } // true = insert
	changes := map[edge]*change{}
	var order []edge
	for _, u := range batch {
		e := canon(u.U, u.V)
		if c, ok := changes[e]; ok {
			c.last = !u.Del
			continue
		}
		changes[e] = &change{!u.Del, !u.Del}
		order = append(order, e)
	}
	var d graph.Delta
	for _, e := range order {
		c := changes[e]
		switch {
		case c.first != c.last:
			// Present before and after, or absent before and after.
		case c.last:
			d.Insert = append(d.Insert, e)
			f.over[e] = true
			f.edges++
		default:
			d.Delete = append(d.Delete, e)
			f.over[e] = false
			f.edges--
		}
	}
	return d
}
