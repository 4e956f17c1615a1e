package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/query"
)

// runWatchdog runs df and fails the test, with every goroutine's stack, if
// the run does not return within limit — a lost wakeup parks an idle
// machine forever instead of failing.
func runWatchdog(t *testing.T, name string, ex *cluster.Exec, df *dataflow.Dataflow, cfg Config, limit time.Duration) uint64 {
	t.Helper()
	type result struct {
		n   uint64
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := Run(context.Background(), ex, df, cfg)
		done <- result{n, err}
	}()
	timer := time.NewTimer(limit)
	defer timer.Stop()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("%s: %v", name, r.err)
		}
		if live := ex.Metrics.LiveTuples(); live != 0 {
			t.Fatalf("%s: live tuples %d after the run, want 0", name, live)
		}
		return r.n
	case <-timer.C:
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("%s: run still going after %v (lost wakeup?)\n%s", name, limit, buf)
		return 0
	}
}

func mustTranslate(t *testing.T, p *plan.Plan) *dataflow.Dataflow {
	t.Helper()
	df, err := plan.Translate(p)
	if err != nil {
		t.Fatal(err)
	}
	return df
}

// TestNoLostWakeupStress drives thousands of tiny runs through the idle
// machines' park-and-wake protocol at 2, 4 and 8 machines: full counts,
// Limit(1) budget halts, delta runs pinned to one edge (so most machines'
// sources are empty and they park at once) and a multi-stage PUSH-JOIN
// plan. Batch and queue sizes vary so that enqueues, steals and the last
// retirement interleave differently from run to run. Every count must match
// the oracle and no run may outlive the watchdog.
func TestNoLostWakeupStress(t *testing.T) {
	g := gen.PowerLaw(80, 3, 21)
	tri := query.Triangle()
	triDF := mustTranslate(t, plan.HugeWcoPlan(tri))
	wantTri := baseline.GroundTruthCount(g, tri)
	diamond := query.Q2()
	joinDF := mustTranslate(t, plan.SEEDPlan(diamond, plan.MomentEstimator(plan.ComputeStats(g))))
	if len(joinDF.Stages) < 2 {
		t.Fatalf("diamond SEED plan has %d stages, want a multi-stage PUSH-JOIN plan", len(joinDF.Stages))
	}
	wantJoin := baseline.GroundTruthCount(g, diamond)
	deltaFlows, err := plan.TranslateDelta(tri)
	if err != nil {
		t.Fatal(err)
	}
	u := graph.VertexID(0)
	pin := graph.NewEdgeSet([][2]graph.VertexID{{u, g.Neighbors(u)[0]}})
	wantPin := baseline.GroundTruthPinnedCount(g, tri, pin)
	if wantTri == 0 || wantJoin == 0 {
		t.Fatalf("degenerate workload: triangles=%d diamonds=%d", wantTri, wantJoin)
	}

	rounds := 200
	if testing.Short() {
		rounds = 30
	}
	const limit = 20 * time.Second
	runs := 0
	for _, k := range []int{2, 4, 8} {
		cl := cluster.New(g, cluster.Config{NumMachines: k, Workers: 1})
		for i := 0; i < rounds; i++ {
			cfg := Config{BatchRows: 1 + i%8, QueueRows: []int64{1, 8, -1}[i%3]}
			name := fmt.Sprintf("k=%d round=%d", k, i)

			if got := runWatchdog(t, name+" triangle", cl.NewExec(), triDF, cfg, limit); got != wantTri {
				t.Fatalf("%s triangle: count %d, want %d", name, got, wantTri)
			}
			limited := cfg
			limited.Budget = NewBudget(1)
			if got := runWatchdog(t, name+" limit1", cl.NewExec(), triDF, limited, limit); got != 1 {
				t.Fatalf("%s limit1: count %d, want 1", name, got)
			}
			delta := cfg
			delta.DeltaEdges = pin
			var got uint64
			for _, df := range deltaFlows {
				got += runWatchdog(t, name+" delta", cl.NewExec(), df, delta, limit)
			}
			if got != wantPin {
				t.Fatalf("%s delta: pinned count %d, want %d", name, got, wantPin)
			}
			runs += 2 + len(deltaFlows)
			if i%4 == 0 {
				if got := runWatchdog(t, name+" push-join", cl.NewExec(), joinDF, cfg, limit); got != wantJoin {
					t.Fatalf("%s push-join: count %d, want %d", name, got, wantJoin)
				}
				runs++
			}
		}
	}
	t.Logf("%d runs", runs)
}

// gatedSource is a sourceIter fed by the test: each nextBatch announces
// itself on entered, then emits the next batch sent on feed, or reports
// exhaustion once feed is closed.
type gatedSource struct {
	entered chan struct{}
	feed    chan *dataflow.Batch
}

func (s *gatedSource) nextBatch(int) (*dataflow.Batch, bool, error) {
	s.entered <- struct{}{}
	b, ok := <-s.feed
	return b, ok, nil
}

type emptySource struct{}

func (emptySource) nextBatch(int) (*dataflow.Batch, bool, error) { return nil, false, nil }

// parkedStage builds a 2-machine sink-only stage with unbounded queues:
// machine 0 has no source rows, so it parks as soon as it starts; machine 1
// reads the returned gated source. It starts machine 1, waits until it sits
// in its source, then starts machine 0 and waits until it has parked. wait
// joins both machines.
func parkedStage(t *testing.T, ctx context.Context) (ex *stageExec, busy *gatedSource, parked <-chan struct{}, wait func()) {
	t.Helper()
	cl := cluster.New(testGraph(), cluster.Config{NumMachines: 2, Workers: 1}).NewExec()
	eng := &Engine{ex: cl, cfg: Config{QueueRows: -1}.withDefaults()}
	ex = &stageExec{eng: eng, st: &dataflow.Stage{Terminal: dataflow.Terminal{Sink: true}}, ctx: ctx}
	ex.sourcesActive.Store(2)
	busy = &gatedSource{entered: make(chan struct{}), feed: make(chan *dataflow.Batch)}
	ex.runs = []*machineRun{
		newMachineRun(ex, cl.Machines[0], emptySource{}),
		newMachineRun(ex, cl.Machines[1], busy),
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ex.runs[1].loop()
	}()
	<-busy.entered
	done := make(chan struct{})
	go func() {
		ex.runs[0].loop()
		close(done)
	}()
	for ex.idle.Load() == 0 {
		runtime.Gosched()
	}
	return ex, busy, done, func() { wg.Wait(); <-done }
}

// TestParkedMachineWakesOnCancel: a machine parked in the idle wait must
// return as soon as the run's context is cancelled, even though its peer is
// stuck mid-operator and so raises no completion or error event.
func TestParkedMachineWakesOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ex, busy, parked, wait := parkedStage(t, ctx)
	select {
	case <-parked:
		t.Fatal("idle machine returned while its peer still had an active source")
	case <-time.After(10 * time.Millisecond):
	}
	cancel()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("parked machine did not wake on cancellation")
	}
	close(busy.feed)
	wait()
	if err := ex.err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("stage error %v, want context.Canceled", err)
	}
	if n := ex.pendingBatches.Load(); n != 0 {
		t.Fatalf("pending batches %d after drain, want 0", n)
	}
}

// TestParkedMachineStealsOnEnqueue: a batch enqueued while a machine is
// parked must wake it to steal. The owner is back inside its source when
// the batch lands, so only the parked machine can take it.
func TestParkedMachineStealsOnEnqueue(t *testing.T) {
	ex, busy, _, wait := parkedStage(t, context.Background())
	b := dataflow.NewBatch(2, 1)
	b.Append([]graph.VertexID{0, 1})
	busy.feed <- b
	<-busy.entered
	metrics := ex.eng.ex.Metrics
	for deadline := time.Now().Add(5 * time.Second); metrics.StealsInter.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("parked machine did not steal the batch enqueued on its peer")
		}
	}
	close(busy.feed)
	wait()
	if err := ex.err(); err != nil {
		t.Fatal(err)
	}
	if n := metrics.Results.Load(); n != 1 {
		t.Fatalf("results %d, want 1", n)
	}
}

// TestSkewedWorkSteals: when every source row starts on one machine, the
// others have nothing of their own and park at once; waking them on each
// enqueue must still drive inter-machine stealing, and the count must stay
// exact.
func TestSkewedWorkSteals(t *testing.T) {
	g := gen.PowerLaw(2000, 8, 17)
	tri := query.Triangle()
	flows, err := plan.TranslateDelta(tri)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(g, cluster.Config{NumMachines: 2, Workers: 1})
	// Pin only edges with both endpoints on machine 0: the delta scan emits
	// a row from the machine owning its first vertex, so machine 1's source
	// is empty in every flow.
	var pinned [][2]graph.VertexID
	for v := 0; v < g.NumVertices(); v++ {
		u := graph.VertexID(v)
		for _, w := range g.Neighbors(u) {
			if u < w && cl.Owner(u) == 0 && cl.Owner(w) == 0 {
				pinned = append(pinned, [2]graph.VertexID{u, w})
			}
		}
	}
	set := graph.NewEdgeSet(pinned)
	want := baseline.GroundTruthPinnedCount(g, tri, set)
	var steals uint64
	for attempt := 0; attempt < 5 && steals == 0; attempt++ {
		var got uint64
		for _, df := range flows {
			ex := cl.NewExec()
			n, err := Run(context.Background(), ex, df, Config{BatchRows: 16, QueueRows: -1, DeltaEdges: set})
			if err != nil {
				t.Fatal(err)
			}
			got += n
			steals += ex.Metrics.StealsInter.Load()
		}
		if got != want {
			t.Fatalf("attempt %d: pinned count %d, want %d", attempt, got, want)
		}
	}
	if steals == 0 {
		t.Fatalf("no inter-machine steals with all %d pinned edges on machine 0", len(pinned))
	}
}

// BenchmarkRunFixedCost measures the per-run fixed cost of a multi-machine
// run, where stage termination rather than matching dominates: a 2-machine
// Limit(10) run, and the delta flows of a 10-edge update.
func BenchmarkRunFixedCost(b *testing.B) {
	g := testGraph()
	tri := query.Triangle()
	cl := cluster.New(g, cluster.Config{NumMachines: 2, Workers: 1})
	b.Run("limit10", func(b *testing.B) {
		df, err := plan.Translate(plan.HugeWcoPlan(tri))
		if err != nil {
			b.Fatal(err)
		}
		for b.Loop() {
			cfg := Config{BatchRows: 64, QueueRows: 1, Budget: NewBudget(10)}
			if n, err := Run(context.Background(), cl.NewExec(), df, cfg); err != nil || n != 10 {
				b.Fatalf("n=%d err=%v", n, err)
			}
		}
	})
	b.Run("delta10", func(b *testing.B) {
		flows, err := plan.TranslateDelta(tri)
		if err != nil {
			b.Fatal(err)
		}
		var pin [][2]graph.VertexID
		for v := 0; len(pin) < 10; v++ {
			u := graph.VertexID(v)
			if nbrs := g.Neighbors(u); len(nbrs) > 0 {
				pin = append(pin, [2]graph.VertexID{u, nbrs[0]})
			}
		}
		cfg := Config{Compress: true, DeltaEdges: graph.NewEdgeSet(pin)}
		for b.Loop() {
			for _, df := range flows {
				if _, err := Run(context.Background(), cl.NewExec(), df, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
