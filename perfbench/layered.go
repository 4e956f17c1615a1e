package main

import (
	"context"
	"sync"

	"repro/huge"
	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/store"
)

// layered performs the operations of a huge.System by calling the layer
// packages itself, in the order System calls them (huge/huge.go, exec.go,
// subscribe.go, persist.go), with a span around each call when a recorder is
// attached. It serves one client goroutine, so it has none of System's
// locking, admission, stream hand-off or fan-out: the difference between the
// two is the serving layer's own cost.
type layered struct {
	rec      *recorder
	machines int
	ccfg     cluster.Config

	// The current snapshot, as huge's snapshot struct holds it.
	g                 *graph.Graph
	cl, prevCl        *cluster.Cluster
	stats             plan.GraphStats
	statsFP           uint64
	card              plan.CardFunc
	inserted, deleted *graph.EdgeSet

	plans *plan.Cache
	st    *store.Store

	flows     []*dataflow.Dataflow // the triangle subscription's delta flows; nil without one
	net       int64                // the subscription's maintained count change
	compacted int                  // Applies whose graph.Apply compacted the snapshot
}

// newLayered deploys g like huge.NewSystem or, with dir set, like
// huge.Create followed by Subscribe(Triangle()).
func newLayered(g *graph.Graph, dir string, rec *recorder) (*layered, error) {
	o := opts()
	l := &layered{
		rec:      rec,
		machines: o.Machines,
		ccfg:     cluster.Config{NumMachines: o.Machines, Workers: o.Workers},
		plans:    plan.NewCache(0),
		g:        g,
	}
	defer rec.end(rec.begin("op.setup"))
	sp := rec.begin("cluster.partition")
	l.cl = cluster.New(g, l.ccfg)
	rec.end(sp)
	sp = rec.begin("plan.compute_stats")
	l.stats = plan.ComputeStats(g)
	rec.end(sp)
	l.estimate()
	if dir == "" {
		return l, nil
	}
	data := l.snapshotData()
	sp = rec.begin("store.create")
	st, err := store.Create(dir, data, store.Options{})
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	l.st = st
	sp = rec.begin("plan.translate_delta")
	l.flows, err = plan.TranslateDelta(query.Triangle())
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	return l, nil
}

// estimate derives the statistics fingerprint (the plan-cache key's graph
// version) and the cardinality estimator from l.stats.
func (l *layered) estimate() {
	sp := l.rec.begin("plan.estimator")
	l.statsFP = l.stats.Fingerprint()
	l.card = plan.MomentEstimator(l.stats)
	l.rec.end(sp)
}

func (l *layered) count(q *query.Query) (uint64, metrics.Summary, error) {
	defer l.rec.end(l.rec.begin("op.count"))
	qfp := q.Fingerprint()
	p := l.plan(q, "optimal",
		func(p *plan.Plan) bool { return p.Q.Fingerprint() == qfp },
		func() *plan.Plan {
			return plan.Optimize(q, plan.Config{NumMachines: l.machines, GraphEdges: float64(l.g.NumEdges()), Card: l.card})
		})
	return l.run(p, nil, nil)
}

func (l *layered) firstK(q *query.Query, k int) ([][]graph.VertexID, metrics.Summary, error) {
	defer l.rec.end(l.rec.begin("op.first_k"))
	// Like System.Exec, a limited run takes the left-deep wco plan family and
	// needs a plan with q's own vertex numbering.
	qfp := q.Fingerprint()
	p := l.plan(q, "wco",
		func(p *plan.Plan) bool { return p.Q.Fingerprint() == qfp && p.Q.SameNumbering(q) },
		func() *plan.Plan { return plan.HugeWcoPlanStats(q, l.stats) })
	var mu sync.Mutex
	var out [][]graph.VertexID
	_, sum, err := l.run(p, func(m []graph.VertexID) {
		mu.Lock()
		out = append(out, m)
		mu.Unlock()
	}, engine.NewBudget(uint64(k)))
	return out, sum, err
}

// plan looks q up in the plan cache and optimises it on a miss.
func (l *layered) plan(q *query.Query, family string, valid func(*plan.Plan) bool, build func() *plan.Plan) *plan.Plan {
	sp := l.rec.begin("plan.cache")
	key := plan.CacheKey(q.Fingerprint(), family, l.machines, l.statsFP)
	p, ok := l.plans.GetIf(key, valid)
	l.rec.end(sp)
	if ok {
		return p
	}
	sp = l.rec.begin("plan.optimize")
	p = build()
	l.rec.end(sp)
	sp = l.rec.begin("plan.cache")
	l.plans.Put(key, p)
	l.rec.end(sp)
	return p
}

func (l *layered) run(p *plan.Plan, fn func([]graph.VertexID), budget *engine.Budget) (uint64, metrics.Summary, error) {
	sp := l.rec.begin("plan.translate")
	df, err := plan.Translate(p)
	l.rec.end(sp)
	if err != nil {
		return 0, metrics.Summary{}, err
	}
	cfg := engineConfig(reindexed(df, fn), budget)
	sp = l.rec.begin("cluster.new_exec")
	ex := l.cl.NewExec()
	l.rec.end(sp)
	sp = l.rec.begin("engine.run")
	n, err := engine.Run(context.Background(), ex, df, cfg)
	l.rec.end(sp)
	return n, ex.Metrics.Snapshot(), err
}

func (l *layered) apply(d graph.Delta) (metrics.Summary, error) {
	defer l.rec.end(l.rec.begin("op.apply"))
	sp := l.rec.begin("graph.apply")
	ng, applied := graph.Apply(l.g, d)
	l.rec.end(sp)
	if applied.Compacted {
		l.compacted++
	}
	if l.st != nil {
		sp = l.rec.begin("store.append")
		err := l.st.Append(ng.Epoch(), d)
		l.rec.end(sp)
		if err != nil {
			return metrics.Summary{}, err
		}
	}
	sp = l.rec.begin("plan.update_stats")
	stats := plan.UpdateStats(l.stats, l.g, ng, applied)
	l.rec.end(sp)
	sp = l.rec.begin("cluster.partition")
	cl := cluster.New(ng, l.ccfg)
	l.rec.end(sp)
	oldFP := l.statsFP
	l.g, l.stats, l.prevCl, l.cl = ng, stats, l.cl, cl
	l.inserted, l.deleted = applied.Inserted, applied.Deleted
	l.estimate()
	sp = l.rec.begin("plan.cache")
	l.plans.InvalidateGraph(oldFP)
	l.rec.end(sp)

	var sum metrics.Summary
	if l.flows != nil {
		// The subscription's maintenance: every delta flow pinned on the
		// inserted edges of the new snapshot, then on the deleted edges of
		// the previous one, collecting matches as System's fan-out does.
		var mu sync.Mutex
		var created, destroyed [][]graph.VertexID
		collect := func(dst *[][]graph.VertexID) func([]graph.VertexID) {
			return func(m []graph.VertexID) {
				mu.Lock()
				*dst = append(*dst, m)
				mu.Unlock()
			}
		}
		var err error
		if sum, err = l.deltaRuns(l.cl, l.inserted, collect(&created), sum); err != nil {
			return sum, err
		}
		if sum, err = l.deltaRuns(l.prevCl, l.deleted, collect(&destroyed), sum); err != nil {
			return sum, err
		}
		l.net += int64(len(created)) - int64(len(destroyed))
	}
	if l.st != nil && l.st.ShouldCompact() {
		data := l.snapshotData()
		sp = l.rec.begin("store.compact")
		// As in System.Apply, a failed compaction is retried at the next
		// Apply; the log still covers every epoch.
		_ = l.st.Compact(data)
		l.rec.end(sp)
	}
	return sum, nil
}

func (l *layered) deltaRuns(cl *cluster.Cluster, set *graph.EdgeSet, fn func([]graph.VertexID), sum metrics.Summary) (metrics.Summary, error) {
	if cl == nil || set.Len() == 0 {
		return sum, nil
	}
	for _, df := range l.flows {
		sp := l.rec.begin("cluster.new_exec")
		ex := cl.NewExec()
		l.rec.end(sp)
		cfg := engineConfig(reindexed(df, fn), nil)
		cfg.DeltaEdges = set
		sp = l.rec.begin("engine.delta_run")
		_, err := engine.Run(context.Background(), ex, df, cfg)
		l.rec.end(sp)
		if err != nil {
			return sum, err
		}
		sum = addSummary(sum, ex.Metrics.Snapshot())
	}
	return sum, nil
}

// snapshotData gathers what a store snapshot persists: the CSR and the
// statistics. System also lists its cached plans' specs, a few hundred
// bytes this path leaves out.
func (l *layered) snapshotData() store.SnapshotData {
	sp := l.rec.begin("graph.export")
	defer l.rec.end(sp)
	return store.SnapshotData{CSR: l.g.Export(), Stats: l.stats}
}

func (l *layered) numEdges() uint64 { return l.g.NumEdges() }

func (l *layered) close() (int64, uint64, error) {
	if l.st == nil {
		return l.net, 0, nil
	}
	return l.net, 0, l.st.Close()
}

// engineConfig is the engine configuration System.Exec derives from opts():
// defaults throughout, and for a Limit run the pure-DFS schedule with
// 64-row batches that System uses for budget-bounded runs.
func engineConfig(onResult func([]graph.VertexID), budget *engine.Budget) engine.Config {
	cfg := engine.Config{QueueRows: huge.DefaultQueueRows, OnResult: onResult, Compress: true, Budget: budget}
	if budget != nil {
		cfg.QueueRows = 1
		cfg.BatchRows = 64
	}
	return cfg
}

// reindexed wraps fn to re-index engine rows (slot order) by query vertex.
func reindexed(df *dataflow.Dataflow, fn func([]graph.VertexID)) func([]graph.VertexID) {
	if fn == nil {
		return nil
	}
	layout := df.Stages[len(df.Stages)-1].OutputLayout()
	return func(row []graph.VertexID) {
		match := make([]graph.VertexID, len(row))
		for slot, qv := range layout {
			match[qv] = row[slot]
		}
		fn(match)
	}
}

// addSummary folds the metrics of sequential engine runs into one: counters
// add, peak tuples take the maximum.
func addSummary(a, b metrics.Summary) metrics.Summary {
	a.BytesPushed += b.BytesPushed
	a.BytesPulled += b.BytesPulled
	a.RPCCalls += b.RPCCalls
	a.PushMsgs += b.PushMsgs
	a.FetchTime += b.FetchTime
	a.Results += b.Results
	a.CacheHits += b.CacheHits
	a.CacheMisses += b.CacheMisses
	a.PeakTuples = max(a.PeakTuples, b.PeakTuples)
	a.StealsIntra += b.StealsIntra
	a.StealsInter += b.StealsInter
	a.Kernels.Add(b.Kernels)
	return a
}
