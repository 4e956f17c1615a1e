// Command perfbench is the repository's benchmark. One run drives one
// workload, generated from --seed, for --seconds of closed-loop load from a
// single client, and checks every answer against an oracle.
//
// With --trace 0 it drives the public huge API and reports the end-to-end
// metrics. With --trace 1 it drives the same operations three ways, round
// by round in rotating order: through the huge API, and through the layer
// packages (layered.go) with the span recorder off and on. The traced arm's
// spans give the per-layer metrics; the other two give the serving layer's
// own cost and the recorder's overhead.
//
// The last line of standard output is the result: {"correct", "attempted",
// "failed", "metrics"}. A report before it records the seed, the machine,
// the graph, sample counts and the percentile behind every tail figure. The
// command exits 1 when any check failed and 2 when it could not run.
//
// Run it through run.sh, which builds it from the checkout's sources:
//
//	bash perfbench/run.sh --workload count-powerlaw --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/baseline"
)

// metricDef names a metric, its unit as BENCHMARK.json lists it, and how
// it is measured.
type metricDef struct{ name, unit, desc string }

var endToEnd = []metricDef{
	{"setup_s", "s", "median over the run's set-ups of System construction (NewSystem, or Create plus Subscribe) and the untimed warm-up; making the graph and the oracle are excluded"},
	{"op_geomean_ms", "ms", "geometric mean over the workload's operation kinds of each kind's mean latency: the four Exec(CountOnly)-to-Wait queries on count-*; the Apply and the four Limit(10) queries (Exec to stream drained to Wait) on serve-churn; the Apply on ingest"},
	{"ops_per_s", "1/s", "operations per round over the median round's operation time; a round is a pass over the query list (count-*), an Apply and four queries (serve-churn), or an Apply (ingest)"},
	{"setup_heap_mb", "MiB", "median over the run's set-ups of the memory a set-up adds: the live Go heap (/gc/heap/live:bytes, read after two forced collections free garbage and pooled batches) after the warm-up less the same before the graph is made, so the System and its graph"},
}

// perLayer comes from the traced run. Per-call times average over the
// traced arm's whole life; per-operation figures over its timed phase. A
// layer a workload never calls reads 0.
var perLayer = []metricDef{
	{"huge.self_ms", "ms", "mean operation latency through the huge API minus the same operations through the layer packages with spans off: the serving layer's own cost"},
	{"huge.plan_hit_rate", "ratio", "plan-cache hits over lookups (System.PlanCacheStats) during the timed phase"},
	{"plan.optimize_ms", "ms", "self time per optimiser call (plan.Optimize, or plan.HugeWcoPlanStats for Limit runs)"},
	{"plan.optimize_calls", "count", "optimiser calls per query in the timed phase"},
	{"plan.translate_ms", "ms", "self time per plan.Translate call"},
	{"plan.update_stats_ms", "ms", "self time per plan.UpdateStats call (one per Apply)"},
	{"cluster.partition_ms", "ms", "self time per cluster.New call (one per Apply and one at set-up)"},
	{"cluster.exec_setup_ms", "ms", "self time per Cluster.NewExec call (one per engine run)"},
	{"cluster.bytes_pulled", "B", "bytes pulled per operation (Result metrics of every engine run it made)"},
	{"cluster.bytes_pushed", "B", "bytes pushed per operation"},
	{"cluster.rpc_calls", "count", "RPCs per operation"},
	{"cache.hit_rate", "ratio", "LRBU cache hits over lookups"},
	{"cache.misses", "count", "LRBU cache misses per operation"},
	{"engine.run_ms", "ms", "engine.Run self time per query"},
	{"engine.delta_run_ms", "ms", "engine.Run self time over the subscription's delta flows, per Apply"},
	{"engine.fetch_ms", "ms", "Summary.FetchTime (PULL-EXTEND fetch stages) per operation"},
	{"engine.peak_tuples", "count", "Summary.PeakTuples per query"},
	{"engine.peak_tuples_per_match", "ratio", "the queries' peak tuples over their matches"},
	{"engine.steals", "count", "intra- plus inter-machine steals per operation"},
	{"graph.kernel_calls", "count", "intersection-kernel dispatches per operation"},
	{"graph.bitset_share", "ratio", "share of kernel dispatches that probed or ANDed hub bitsets, materialising and count-only"},
	{"graph.apply_ms", "ms", "self time per graph.Apply call"},
	{"graph.compaction_rate", "ratio", "share of timed Applies whose graph.Apply compacted the snapshot"},
	{"store.append_ms", "ms", "self time per Store.Append call, fsync included"},
	{"store.compact_ms", "ms", "self time per Store.Compact call"},
	{"store.compactions", "count", "Store.Compact calls in the timed phase"},
	{"store.bytes_per_apply", "B", "growth of the store directory per timed Apply"},
	{"trace_overhead_pct", "%", "mean operation latency through the layer packages with spans on over spans off, minus one"},
	{"trace.unattributed_pct", "%", "share of the traced operations' latency that no layer span covers"},
	{"ref.oracle_ms", "ms", "geometric mean over the count-* queries of the single-threaded oracle's time (baseline.GroundTruthCount)"},
	{"ref.engine_oracle_ratio", "ratio", "geometric mean of the engine's per-query median latency over ref.oracle_ms"},
}

// figureDefs describe the report's figures that are not gated.
var figureDefs = map[string]string{
	"end_heap_mb":  "the memory the System holds after the timed phase: the live heap with it less the live heap once it is closed and dropped; not gated, as it moves with where the run stops in the graph overlay's grow-and-compact cycle",
	"heap_mb":      "median over timed operations of the Go heap footprint (/memory/classes/heap/objects:bytes) read after each one",
	"peak_heap_mb": "largest of those readings; neither is gated, as both swing between runs with GC timing and with the batches the engine keeps pooled",
	"mix_s":        "median operation time of one pass over the query list",
	"query_p50_ms": "median of the Limit(10) queries' latencies; query_tail_ms is the highest percentile with ten samples beyond it",
	"apply_p50_ms": "median Apply latency; apply_tail_ms is the highest percentile with ten samples beyond it",
	"failed_frac":  "operations that errored or failed a check over operations attempted: the result's failed/attempted",
}

const load = "closed loop, one client goroutine; a serve-churn System also has one goroutine draining its subscription"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report describes a run: its inputs, the machine, and how each figure was
// measured.
type report struct {
	Workload   string  `json:"workload"`
	Why        string  `json:"why"`
	Seed       int64   `json:"seed"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	Load       string  `json:"load"`
	Deployment string  `json:"deployment"`

	Graph graphInfo `json:"graph"`
	// SetupS holds every set-up time; setup_s is their median.
	SetupS []float64 `json:"setup_s_samples,omitempty"`
	// Ops summarises each operation kind of the timed phase (of the huge
	// API arm when tracing).
	Ops map[string]opStats `json:"ops"`
	// Figures are the untraced run's figures with their sample counts: the
	// gated metrics first, then the heap and the latency medians and tails.
	Figures    []namedFigure `json:"figures,omitempty"`
	FailedFrac float64       `json:"failed_frac"`
	Failures   []string      `json:"failures,omitempty"`

	// Traced runs: self time per operation of every span name, the
	// operation latency they add up to, and where the spans were written.
	Layers      map[string]layerStats `json:"layers,omitempty"`
	TracedOpMS  float64               `json:"traced_op_ms,omitempty"`
	TracedOps   int                   `json:"traced_ops,omitempty"`
	ArmOpMS     map[string]float64    `json:"arm_op_ms,omitempty"`
	SpansFile   string                `json:"spans_file,omitempty"`
	OracleMS    map[string]float64    `json:"oracle_ms,omitempty"`
	Definitions map[string]string     `json:"definitions"` // of every metric and figure the run reports
}

type opStats struct {
	Samples int     `json:"samples"`
	P50MS   float64 `json:"p50_ms"`
	TailPct float64 `json:"tail_percentile,omitempty"` // 0: too few samples for any tail
	TailMS  float64 `json:"tail_ms,omitempty"`
	MeanMS  float64 `json:"mean_ms"`
	Matches uint64  `json:"matches,omitempty"`
}

type namedFigure struct {
	Name       string  `json:"name"`
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	Samples    int     `json:"samples"`
	Percentile float64 `json:"percentile,omitempty"` // the percentile the value is; 0 for a mean or a single reading
}

// layerStats is the self time of one span name in the traced arm.
type layerStats struct {
	Calls         int     `json:"calls"`            // over the arm's life: set-up, warm-up and timed phase
	SelfMSPerCall float64 `json:"self_ms_per_call"` // over the same calls
	TimedCalls    int     `json:"timed_calls"`
	SelfMSPerOp   float64 `json:"self_ms_per_op"` // per timed operation
}

type config struct {
	w       workload
	seed    int64
	seconds time.Duration
	trace   bool
	workdir string
	sz      sizes
	oracle  countOracle
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, defaultSizes(), baseline.GroundTruthCount))
}

// run is the whole command; main passes the real sizes and oracle, the
// self-test a miniature and, to see the gate fire, a wrong oracle.
func run(args []string, stdout, stderr io.Writer, sz sizes, oracle countOracle) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: count-powerlaw, count-road, serve-churn or ingest")
	seed := fl.Int64("seed", 1, "seed every input is generated from")
	seconds := fl.Float64("seconds", 10, "length of the timed phase")
	trace := fl.Int("trace", 0, "0: end-to-end metrics through the huge API; 1: per-layer metrics from a traced run")
	workdir := fl.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for store directories and span files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err == nil && (*trace < 0 || *trace > 1 || *seconds <= 0) {
		err = errors.New("--trace must be 0 or 1 and --seconds positive")
	}
	if err == nil {
		err = os.MkdirAll(filepath.Join(*workdir, "stores"), 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	cfg := config{w: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, workdir: *workdir, sz: sz, oracle: oracle}
	rep, res, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: correctness checks failed:", rep.Failures)
		return 1
	}
	return 0
}

func execute(cfg config) (*report, *result, error) {
	in := prepare(cfg.w, cfg.seed, cfg.sz, cfg.oracle)
	rep := &report{
		Workload: cfg.w.name, Why: cfg.w.why, Seed: cfg.seed, Commit: commit(),
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Trace: cfg.trace, Seconds: cfg.seconds.Seconds(), Graph: in.info,
		Load: load, Deployment: "huge.Options{Machines: 2, Workers: 1}, no latency model",
		OracleMS: in.oracleMS, Definitions: map[string]string{},
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	} else {
		maps.Copy(rep.Definitions, figureDefs)
	}
	for _, d := range defs {
		rep.Definitions[d.name] = d.desc
	}
	if cfg.trace {
		res, err := traced(cfg, in, rep)
		return rep, res, err
	}
	res, err := plain(cfg, in, rep)
	return rep, res, err
}
