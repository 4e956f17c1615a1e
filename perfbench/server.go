package main

import (
	"context"
	"errors"
	"sync"

	"repro/huge"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/query"
)

// server is the system under test as a workload client sees it. Two
// implementations drive the same operations: public goes through the huge
// API, layered (layered.go) through the layer packages' own functions in the
// order huge.System calls them.
type server interface {
	// count runs q with CountOnly and returns its match count.
	count(q *query.Query) (uint64, metrics.Summary, error)
	// firstK runs q with Limit(k) and returns the streamed matches.
	firstK(q *query.Query, k int) ([][]graph.VertexID, metrics.Summary, error)
	// apply merges d into the graph, maintaining any subscription.
	apply(d graph.Delta) (metrics.Summary, error)
	numEdges() uint64
	// close releases the server. For a server with a triangle subscription
	// it then reports the subscription's maintained count change (the sum
	// over events of len(New) - len(Dead)) and the events it missed.
	close() (net int64, missed uint64, err error)
}

// opts is the deployment of every System the benchmark builds: one worker
// on each of two simulated machines (one per core of the reference
// machine), no latency model, so communication shows as bytes and RPCs.
func opts() huge.Options { return huge.Options{Machines: 2, Workers: 1} }

// public drives a huge.System through its exported API.
type public struct {
	sys   *huge.System
	sub   *huge.Subscription
	drain sync.WaitGroup
	net   int64 // written by the drain goroutine, read after drain.Wait
}

// newPublic deploys g. With dir set the System is durable (huge.Create with
// the default PersistConfig) and carries a standing triangle subscription
// whose events one goroutine drains.
func newPublic(g *graph.Graph, dir string) (*public, error) {
	p := &public{}
	if dir == "" {
		p.sys = huge.NewSystem(g, opts())
		return p, nil
	}
	sys, err := huge.Create(dir, g, opts())
	if err != nil {
		return nil, err
	}
	p.sys = sys
	if p.sub, err = sys.Subscribe(huge.Triangle()); err != nil {
		return nil, errors.Join(err, sys.Close())
	}
	p.drain.Add(1)
	go func() {
		defer p.drain.Done()
		for ev := range p.sub.C() {
			p.net += int64(len(ev.New)) - int64(len(ev.Dead))
		}
	}()
	return p, nil
}

func (p *public) count(q *query.Query) (uint64, metrics.Summary, error) {
	res, err := p.sys.Exec(context.Background(), q, huge.CountOnly()).Wait()
	return res.Count, res.Metrics, err
}

func (p *public) firstK(q *query.Query, k int) ([][]graph.VertexID, metrics.Summary, error) {
	st := p.sys.Exec(context.Background(), q, huge.Limit(k))
	var out [][]graph.VertexID
	for m := range st.Matches() {
		out = append(out, m)
	}
	res, err := st.Wait()
	return out, res.Metrics, err
}

// apply has no error to report: System.Apply panics if its log write fails.
func (p *public) apply(d graph.Delta) (metrics.Summary, error) {
	p.sys.Apply(d)
	return metrics.Summary{}, nil
}

func (p *public) numEdges() uint64 { return p.sys.Graph().NumEdges() }

func (p *public) close() (int64, uint64, error) {
	var err error
	var missed uint64
	if p.sub != nil {
		err = p.sub.Close()
		p.drain.Wait()
		missed = p.sub.Missed()
	}
	return p.net, missed, errors.Join(err, p.sys.Close())
}

// planStats reports the plan cache's cumulative hits and misses.
func (p *public) planStats() (hits, misses uint64) {
	hits, misses, _ = p.sys.PlanCacheStats()
	return hits, misses
}
