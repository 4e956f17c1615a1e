package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"repro/internal/graph"
	hmetrics "repro/internal/metrics"
	"repro/internal/query"
)

// opRecord is one timed operation.
type opRecord struct {
	kind    string // a query name, or "apply"
	d       time.Duration
	sum     hmetrics.Summary
	matches uint64
}

// client is one closed-loop client: it sends a workload's next operation
// when the previous one returns, times each operation from call to return,
// and checks every answer.
type client struct {
	in     *inputs
	oracle countOracle
	srv    server
	feed   *feed  // serve-churn and ingest
	dir    string // the durable System's store directory, removed by finish

	setup     time.Duration // construction plus warm-up
	setupHeap float64       // MiB of live heap the set-up added: the System and its graph

	timed     bool         // record operations (after set-up and warm-up)
	heap      *heapSampler // sampled after every timed operation when set
	ops       []opRecord   // timed operations
	rounds    []time.Duration
	roundTime time.Duration // operation time within the current round
	attempted int
	failed    int
	failures  []string
}

// newClient builds a server for in and warms it up: a huge.System or, with
// layers set, the layer packages recording spans into rec (nil: spans off).
// setup times the construction plus the warm-up; making the graph is not
// part of it, though the graph's memory is part of setupHeap.
func newClient(in *inputs, oracle countOracle, workdir string, layers bool, rec *recorder) (*client, error) {
	c := &client{in: in, oracle: oracle}
	if in.stream != nil {
		c.feed = newFeed(in)
	}
	if in.w.kind == churnKind {
		dir, err := os.MkdirTemp(filepath.Join(workdir, "stores"), in.w.name+"-")
		if err != nil {
			return nil, err
		}
		c.dir = dir
	}
	before := liveHeap()
	g := in.graph()
	start := time.Now()
	var err error
	if layers {
		c.srv, err = newLayered(g, c.dir, rec)
	} else {
		c.srv, err = newPublic(g, c.dir)
	}
	if err != nil {
		return nil, err
	}
	for i := 0; i < in.warmRounds; i++ {
		c.round()
	}
	c.setup = time.Since(start)
	c.setupHeap = mib(liveHeap()) - mib(before)
	return c, nil
}

// round runs one round of the workload: a pass over the query list
// (count-*), one Apply followed by one Limit(k) run of each query
// (serve-churn), or one Apply (ingest).
func (c *client) round() {
	c.roundTime = 0
	switch c.in.w.kind {
	case countKind:
		for _, nq := range c.in.queries {
			start := time.Now()
			n, sum, err := c.srv.count(nq.q)
			d := time.Since(start)
			if err == nil && n != c.in.expected[nq.name] {
				err = fmt.Errorf("count %d, oracle %d", n, c.in.expected[nq.name])
			}
			c.record(nq.name, d, sum, n, err)
		}
	case churnKind:
		c.applyNext()
		for _, nq := range c.in.queries {
			start := time.Now()
			matches, sum, err := c.srv.firstK(nq.q, c.in.sz.limit)
			d := time.Since(start)
			if err == nil {
				err = c.checkFirstK(nq.q, matches)
			}
			c.record(nq.name, d, sum, uint64(len(matches)), err)
		}
	case ingestKind:
		c.applyNext()
	}
	if c.timed {
		c.rounds = append(c.rounds, c.roundTime)
	}
}

func (c *client) applyNext() {
	d := c.feed.next(c.in.sz.batch)
	start := time.Now()
	sum, err := c.srv.apply(d)
	c.record("apply", time.Since(start), sum, 0, err)
}

// record counts one operation, and keeps it when the client is timing.
func (c *client) record(kind string, d time.Duration, sum hmetrics.Summary, matches uint64, err error) {
	c.attempted++
	if err != nil {
		c.fail(fmt.Errorf("%s: %w", kind, err))
	}
	if !c.timed {
		return
	}
	c.ops = append(c.ops, opRecord{kind, d, sum, matches})
	c.roundTime += d
	if c.heap != nil {
		c.heap.sample()
	}
}

func (c *client) fail(err error) {
	c.failed++
	if len(c.failures) < 10 {
		c.failures = append(c.failures, err.Error())
	}
}

// checkFirstK checks a Limit(k) answer against the replayed graph: exactly
// min(k, total) distinct matches, each mapping the query's vertices to
// distinct data vertices joined by every query edge.
func (c *client) checkFirstK(q *query.Query, matches [][]graph.VertexID) error {
	k := c.in.sz.limit
	seen := map[string]bool{}
	for _, m := range matches {
		if len(m) != q.NumVertices() {
			return fmt.Errorf("match %v has %d vertices, want %d", m, len(m), q.NumVertices())
		}
		key := fmt.Sprint(m)
		if seen[key] {
			return fmt.Errorf("match %v repeated", m)
		}
		seen[key] = true
		for i := range m {
			for j := i + 1; j < len(m); j++ {
				if m[i] == m[j] {
					return fmt.Errorf("match %v maps two query vertices to one data vertex", m)
				}
			}
		}
		for _, e := range q.Edges() {
			if !c.feed.has(m[e[0]], m[e[1]]) {
				return fmt.Errorf("match %v uses absent edge (%d,%d)", m, m[e[0]], m[e[1]])
			}
		}
	}
	if len(matches) > k {
		return fmt.Errorf("%d matches for Limit(%d)", len(matches), k)
	}
	if len(matches) < k {
		// Fewer than k only when fewer exist. Rare at full size, so the
		// oracle runs only then.
		if total := c.oracle(c.feed.current(), q); uint64(len(matches)) != min(uint64(k), total) {
			return fmt.Errorf("%d matches for Limit(%d), oracle total %d", len(matches), k, total)
		}
	}
	return nil
}

// finish closes the server and runs the end-of-run checks: the System's
// edge count against the replay, and the subscription's maintained
// triangle count against the oracle on the replayed final graph. Each check
// counts as one attempted operation.
func (c *client) finish() {
	check := func(ok bool, format string, args ...any) {
		c.attempted++
		if !ok {
			c.fail(fmt.Errorf(format, args...))
		}
	}
	if c.feed != nil {
		got := c.srv.numEdges()
		check(got == c.feed.edges, "final edge count %d, replay %d", got, c.feed.edges)
	}
	net, missed, err := c.srv.close()
	check(err == nil, "close: %v", err)
	if c.in.w.kind == churnKind {
		want := c.oracle(c.feed.current(), query.Triangle())
		got := int64(c.in.triangles0) + net
		check(got == int64(want) && missed == 0, "subscription: initial %d + maintained %d = %d, oracle %d, missed %d",
			c.in.triangles0, net, got, want, missed)
	}
	if c.dir != "" {
		err := os.RemoveAll(c.dir)
		check(err == nil, "remove store: %v", err)
	}
	c.srv, c.feed = nil, nil // a finished client keeps only its records
}

// heapSampler reads the Go heap footprint: the bytes of heap objects, live
// or not yet swept.
type heapSampler struct {
	s       []metrics.Sample
	samples []float64
}

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
}

func (h *heapSampler) sample() {
	metrics.Read(h.s)
	h.samples = append(h.samples, float64(h.s[0].Value.Uint64()))
}
