package main

import (
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"time"
)

// plain sets the workload up several times, keeps the last System, and
// drives it through the huge API for the timed phase.
func plain(cfg config, in *inputs, rep *report) (*result, error) {
	var c *client
	var all []*client
	var total time.Duration
	var setupHeap []float64
	for i := 0; i < cfg.sz.minSetups || (i < cfg.sz.maxSetups && total < cfg.sz.setupBudget); i++ {
		if c != nil {
			c.finish()
		}
		var err error
		if c, err = newClient(in, cfg.oracle, cfg.workdir, false, nil); err != nil {
			return nil, err
		}
		all = append(all, c)
		rep.SetupS = append(rep.SetupS, c.setup.Seconds())
		setupHeap = append(setupHeap, c.setupHeap)
		total += c.setup
	}
	runtime.GC()
	c.timed = true
	c.heap = newHeapSampler()
	for start := time.Now(); time.Since(start) < cfg.seconds; {
		c.round()
	}
	// The memory the System holds after the timed phase: the live heap with
	// it, less the live heap once finish has closed and dropped it, so the
	// benchmark's records and replay (alive through both readings) do not
	// count.
	withSystem, replay := liveHeap(), c.feed
	c.finish()
	endHeap := mib(withSystem) - mib(liveHeap())
	runtime.KeepAlive(replay)

	rep.Ops = summarise(c.ops)
	var rounds []float64
	for _, r := range c.rounds {
		rounds = append(rounds, r.Seconds())
	}
	res := newResult(all)
	figures := []namedFigure{
		{"setup_s", median(rep.SetupS), "s", len(rep.SetupS), 50},
		{"op_geomean_ms", opGeomean(rep.Ops, false), "ms", len(c.ops), 0},
		{"ops_per_s", float64(len(c.ops)) / float64(len(rounds)) / median(rounds), "1/s", len(rounds), 50},
		{"setup_heap_mb", median(setupHeap), "MiB", len(setupHeap), 50},
	}
	for _, f := range figures {
		res.Metrics[f.Name] = metric{f.Value, f.Unit}
	}
	figures = append(figures,
		namedFigure{"end_heap_mb", endHeap, "MiB", 1, 0},
		namedFigure{"heap_mb", median(c.heap.samples) / (1 << 20), "MiB", len(c.heap.samples), 50},
		namedFigure{"peak_heap_mb", slices.Max(c.heap.samples) / (1 << 20), "MiB", len(c.heap.samples), 100})
	var queries, applies []float64
	for _, op := range c.ops {
		if op.kind == "apply" {
			applies = append(applies, ms(op.d))
		} else {
			queries = append(queries, ms(op.d))
		}
	}
	switch in.w.kind {
	case countKind:
		figures = append(figures, namedFigure{"mix_s", median(rounds), "s", len(rounds), 50})
	case churnKind:
		figures = append(figures, latency("query", queries)...)
		figures = append(figures, latency("apply", applies)...)
	case ingestKind:
		figures = append(figures, latency("apply", applies)...)
	}
	rep.Figures = figures
	finishReport(rep, res, all)
	return res, nil
}

// latency gives the median and the highest tail percentile the samples
// support.
func latency(prefix string, xs []float64) []namedFigure {
	out := []namedFigure{{prefix + "_p50_ms", percentile(xs, 50), "ms", len(xs), 50}}
	if p := tailPercentile(len(xs)); p > 0 {
		out = append(out, namedFigure{prefix + "_tail_ms", percentile(xs, p), "ms", len(xs), p})
	}
	return out
}

// traced drives the three arms round by round, rotating which goes first,
// and derives the per-layer metrics from the traced arm's spans and engine
// counters.
func traced(cfg config, in *inputs, rep *report) (*result, error) {
	rec := newRecorder()
	var arms []*client
	// The huge API, then the layer packages with spans off and on.
	for _, arm := range []struct {
		layers bool
		rec    *recorder
	}{{false, nil}, {true, nil}, {true, rec}} {
		c, err := newClient(in, cfg.oracle, cfg.workdir, arm.layers, arm.rec)
		if err != nil {
			return nil, err
		}
		arms = append(arms, c)
	}
	pub, lay, tr := arms[0], arms[1], arms[2]
	runtime.GC()
	hits0, misses0 := pub.srv.(*public).planStats()
	firstOp := rec.ops + 1
	compacted0 := tr.srv.(*layered).compacted
	bytes0, err := dirSize(tr.dir)
	if err != nil {
		return nil, err
	}
	for _, c := range arms {
		c.timed = true
	}
	for r, start := 0, time.Now(); time.Since(start) < cfg.seconds; r++ {
		for i := range arms {
			arms[(r+i)%len(arms)].round()
		}
	}
	hits1, misses1 := pub.srv.(*public).planStats()
	compacted := tr.srv.(*layered).compacted - compacted0
	bytes1, err := dirSize(tr.dir)
	if err != nil {
		return nil, err
	}
	for _, c := range arms {
		c.finish()
	}
	rep.SpansFile = filepath.Join(cfg.workdir, "spans", fmt.Sprintf("%s-seed%d.jsonl", in.w.name, in.seed))
	if err := writeSpans(rep.SpansFile, rec.spans); err != nil {
		return nil, err
	}

	rep.Ops = summarise(pub.ops)
	res := newResult(arms)
	set := func(name string, v float64) { res.Metrics[name] = metric{v, unitOf(name)} }

	meanPub, meanLay, meanTr := meanMS(pub.ops), meanMS(lay.ops), meanMS(tr.ops)
	rep.ArmOpMS = map[string]float64{"huge": meanPub, "layered": meanLay, "layered_traced": meanTr}
	set("huge.self_ms", meanPub-meanLay)
	set("trace_overhead_pct", 100*ratio(meanTr-meanLay, meanLay))
	set("huge.plan_hit_rate", ratio(float64(hits1-hits0), float64(hits1-hits0+misses1-misses0)))

	t := layerTimes(rec.spans, firstOp)
	rep.Layers, rep.TracedOpMS, rep.TracedOps = t.layers, ratio(t.rootMS, float64(t.ops)), t.ops
	perCall := func(name string) float64 { return t.layers[name].SelfMSPerCall }
	set("plan.optimize_ms", perCall("plan.optimize"))
	set("plan.optimize_calls", ratio(float64(t.layers["plan.optimize"].TimedCalls), float64(t.queries)))
	set("plan.translate_ms", perCall("plan.translate"))
	set("plan.update_stats_ms", perCall("plan.update_stats"))
	set("cluster.partition_ms", perCall("cluster.partition"))
	set("cluster.exec_setup_ms", perCall("cluster.new_exec"))
	set("engine.run_ms", ratio(t.timedSelfMS["engine.run"], float64(t.queries)))
	set("engine.delta_run_ms", ratio(t.timedSelfMS["engine.delta_run"], float64(t.applies)))
	set("graph.apply_ms", perCall("graph.apply"))
	set("graph.compaction_rate", ratio(float64(compacted), float64(t.applies)))
	set("store.append_ms", perCall("store.append"))
	set("store.compact_ms", perCall("store.compact"))
	set("store.compactions", float64(t.layers["store.compact"].TimedCalls))
	set("store.bytes_per_apply", ratio(float64(bytes1-bytes0), float64(t.applies)))
	set("trace.unattributed_pct", 100*ratio(t.rootSelfMS, t.rootMS))

	// The engine's counters, per timed operation of the traced arm.
	var pulled, pushed, rpcs, hits, misses, steals, kernels, bitset, peak, matches float64
	var fetch time.Duration
	for _, op := range tr.ops {
		s := op.sum
		pulled += float64(s.BytesPulled)
		pushed += float64(s.BytesPushed)
		rpcs += float64(s.RPCCalls)
		hits += float64(s.CacheHits)
		misses += float64(s.CacheMisses)
		steals += float64(s.StealsIntra + s.StealsInter)
		fetch += s.FetchTime
		k := s.Kernels
		kernels += float64(k.Total())
		bitset += float64(k.BitsetProbe + k.BitsetAnd + k.CountProbe + k.CountBitsetAnd)
		if op.kind != "apply" {
			peak += float64(s.PeakTuples)
			matches += float64(op.matches)
		}
	}
	n := float64(len(tr.ops))
	set("cluster.bytes_pulled", ratio(pulled, n))
	set("cluster.bytes_pushed", ratio(pushed, n))
	set("cluster.rpc_calls", ratio(rpcs, n))
	set("cache.hit_rate", ratio(hits, hits+misses))
	set("cache.misses", ratio(misses, n))
	set("engine.steals", ratio(steals, n))
	set("engine.fetch_ms", ratio(ms(fetch), n))
	set("graph.kernel_calls", ratio(kernels, n))
	set("graph.bitset_share", ratio(bitset, kernels))
	set("engine.peak_tuples", ratio(peak, float64(t.queries)))
	set("engine.peak_tuples_per_match", ratio(peak, matches))

	// The speed-of-light reference: the single-threaded oracle the count-*
	// checks already time, against the engine's median on the huge arm.
	var oracle, engine float64
	if in.oracleMS != nil {
		var xs []float64
		for _, nq := range in.queries {
			xs = append(xs, in.oracleMS[nq.name])
		}
		oracle, engine = geomean(xs), opGeomean(rep.Ops, true)
	}
	set("ref.oracle_ms", oracle)
	set("ref.engine_oracle_ratio", ratio(engine, oracle))
	finishReport(rep, res, arms)
	return res, nil
}

// spanTotals are the traced arm's self times.
type spanTotals struct {
	layers           map[string]layerStats
	timedSelfMS      map[string]float64
	ops              int     // timed operations
	queries, applies int     //
	rootMS           float64 // their total latency
	rootSelfMS       float64 // the part no layer span covers
}

// layerTimes sums self time per span name: per call over all spans, so a
// layer called only during set-up still has a figure, and per operation
// over the operations numbered firstOp and later (the timed phase).
func layerTimes(spans []span, firstOp int) spanTotals {
	self := selfTimes(spans)
	t := spanTotals{layers: map[string]layerStats{}, timedSelfMS: map[string]float64{}}
	calls := map[string]int{}
	callMS := map[string]float64{}
	timedCalls := map[string]int{}
	for i, s := range spans {
		calls[s.Name]++
		callMS[s.Name] += ms(self[i])
		if s.Op < firstOp {
			continue
		}
		timedCalls[s.Name]++
		t.timedSelfMS[s.Name] += ms(self[i])
		if s.Parent >= 0 {
			continue
		}
		t.ops++
		t.rootMS += ms(time.Duration(s.End - s.Start))
		t.rootSelfMS += ms(self[i])
		if s.Name == "op.apply" {
			t.applies++
		} else {
			t.queries++
		}
	}
	for name, n := range calls {
		t.layers[name] = layerStats{
			Calls:         n,
			SelfMSPerCall: callMS[name] / float64(n),
			TimedCalls:    timedCalls[name],
			SelfMSPerOp:   ratio(t.timedSelfMS[name], float64(t.ops)),
		}
	}
	return t
}

func unitOf(name string) string {
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: undeclared metric " + name)
}

func newResult(clients []*client) *result {
	res := &result{Metrics: map[string]metric{}}
	for _, c := range clients {
		res.Attempted += c.attempted
		res.Failed += c.failed
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

func finishReport(rep *report, res *result, clients []*client) {
	rep.FailedFrac = ratio(float64(res.Failed), float64(res.Attempted))
	for _, c := range clients {
		rep.Failures = append(rep.Failures, c.failures...)
	}
}

func summarise(ops []opRecord) map[string]opStats {
	byKind := map[string][]float64{}
	matches := map[string]uint64{}
	for _, op := range ops {
		byKind[op.kind] = append(byKind[op.kind], ms(op.d))
		matches[op.kind] += op.matches
	}
	out := map[string]opStats{}
	for kind, xs := range byKind {
		st := opStats{Samples: len(xs), P50MS: percentile(xs, 50), MeanMS: mean(xs), Matches: matches[kind]}
		if p := tailPercentile(len(xs)); p > 0 {
			st.TailPct, st.TailMS = p, percentile(xs, p)
		}
		out[kind] = st
	}
	return out
}

// opGeomean is the geometric mean over operation kinds of each kind's mean
// latency, or with medians set of its median. The gated figure uses means:
// a short query's latency is multimodal (an idle engine machine polls for
// work with a sleep that doubles from 100µs), and a median jumps between
// modes as their shares shift around one half.
func opGeomean(ops map[string]opStats, medians bool) float64 {
	var xs []float64
	for _, st := range ops {
		if medians {
			xs = append(xs, st.P50MS)
		} else {
			xs = append(xs, st.MeanMS)
		}
	}
	return geomean(xs)
}

func meanMS(ops []opRecord) float64 {
	var xs []float64
	for _, op := range ops {
		xs = append(xs, ms(op.d))
	}
	return mean(xs)
}

// tailPercentile is the highest of the reported percentiles that has at
// least ten samples beyond it, or 0 when none has.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 90} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 0
}

// percentile is the nearest-rank percentile p of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return ratio(t, float64(len(xs)))
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never calls).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mib(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

func dirSize(dir string) (int64, error) {
	if dir == "" {
		return 0, nil
	}
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// liveHeap is the live heap once garbage and pooled objects are gone: a
// sync.Pool survives one collection in its victim cache, so it takes two.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	rev, dirty := "unknown (built outside a git checkout)", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = " with uncommitted changes"
			}
		}
	}
	return rev + dirty
}
