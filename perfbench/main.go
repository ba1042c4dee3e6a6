// Command perfbench is the repository's benchmark: it generates a
// workload's inputs from a seed, drives the solver stack with them for a
// fixed time, checks every output, and prints the workload's metrics. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// Timed metrics are scaled to a nominal machine speed that a speed probe,
// run between units of load, measures (probe.go).
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// timed phase runs with spans recorded around every layer call, a
// one-at-a-time pass follows, and the metrics are the per-layer ones.
// README.md documents the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: batch-dense, batch-int, serve-mixed or genome-seeded")
		seed     = flag.Int64("seed", 1, "workload seed; equal seeds generate equal inputs")
		seconds  = flag.Float64("seconds", 15, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		traceDir = flag.String("trace-dir", ".bench_build/trace", "directory the traced run writes its spans to")
	)
	flag.Parse()
	sp, ok := specByName(*workload)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (batch-dense|batch-int|serve-mixed|genome-seeded), --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	// The load is sized for two cores: never more than two solving threads.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	rep, err := run(sp, *seed, *seconds, *trace == 1, *traceDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("%-30s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func run(sp spec, seed int64, seconds float64, traced bool, traceDir string) (*report, error) {
	in, err := genInputs(sp, seed)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	pr := newProber()
	var out *runOut
	if sp.serve {
		out, err = runOpen(sp, in, seed, seconds, tr, pr)
	} else {
		out, err = runClosed(sp, in, seconds, tr, pr)
	}
	if err != nil {
		return nil, err
	}
	if out.completed == 0 {
		return nil, fmt.Errorf("no instance completed; first failures: %v", out.problems)
	}
	truthRatio, acc, qerr := out.q.means()
	if qerr != nil {
		out.fail(qerr)
	}
	rep := &report{Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { rep.Metrics[name] = metric{v, unit} }
	if !traced {
		// Times are scaled to the speed probe's nominal speed (probe.go).
		f, fc := pr.factor(), pr.cpuFactor()
		fmt.Fprintf(os.Stderr, "speed probe: %d probes, mean %.4f ms, CPU median %.4f ms; wall times scaled by %.4f, CPU times by %.4f\n",
			len(pr.ms), pr.mean(), probeNominalCPUMS/fc, f, fc)
		put("setup_s", f*quantile(out.setup, 0.5), "s")
		// serve-mixed's offered rate fixes its throughput, so it is not scaled.
		rate := float64(out.completed) / out.elapsed.Seconds()
		if !sp.serve {
			rate /= f
		}
		put("inst_per_s", rate, "1/s")
		put("cpu_ms_per_inst", fc*ms(out.cpu)/float64(out.completed), "ms")
		put("solve_p50_ms", f*quantile(out.walls, 0.5), "ms")
		put("solve_p90_ms", f*quantile(out.walls, 0.9), "ms")
		put("req_p50_ms", f*quantile(out.lats, 0.5), "ms")
		put("req_p90_ms", f*quantile(out.lats, 0.9), "ms")
		put("ttfr_p50_ms", f*quantile(out.ttfrs, 0.5), "ms")
		put("peak_heap_mb", out.peakMB, "MB")
		put("score_vs_truth", truthRatio, "ratio")
		put("layout_accuracy", acc, "ratio")
	} else {
		ps := runPass(sp, in, tr)
		for _, p := range ps.checkProblems {
			out.fail(fmt.Errorf("pass: %s", p))
		}
		layerMetrics(put, out, ps, pr)
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", sp.name, seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintln(os.Stderr, "spans written to", path)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	rep.Attempted, rep.Failed = out.attempted, out.failed
	rep.Correct = out.failed == 0 && out.attempted > 0
	return rep, nil
}

// layerMetrics fills the per-layer metrics from the traced timed phase and
// the one-at-a-time pass.
func layerMetrics(put func(string, float64, string), out *runOut, ps *passOut, pr *prober) {
	n := float64(ps.n)
	perInst := func(name string) float64 { return float64(ps.self[name].Nanoseconds()) / n }
	put("encoding.decode_us_per_inst", perInst("encoding.decode")/1e3, "us")
	put("encoding.encode_us_per_rec", perInst("encoding.encode")/1e3, "us")
	compiles := float64(max(ps.compiles, 1))
	put("score.compile_ms", ms(ps.self["score.compile"])/compiles, "ms")
	put("score.compile_mb", float64(ps.compileBytes)/compiles/(1<<20), "MB")

	c := out.counters
	put("batch.sigma_misses", float64(c.SigmaMisses), "count")
	put("batch.sigma_hit_ratio", ratio(c.SigmaHits, c.SigmaHits+c.SigmaMisses), "ratio")
	put("batch.queue_wait_ms_p50", quantile(out.queueWaits, 0.5), "ms")
	put("batch.shard_busy_share", out.busyShare, "share")
	put("batch.failed", float64(c.Failed), "count")
	put("batch.rejected", float64(c.Rejected+c.OverBudget), "count")

	put("seed.candidates_ms", perInst("seed.candidates")/1e6, "ms")
	put("seed.pair_share", ps.seedPairs/n, "share")
	put("seed.anchors", float64(ps.seedAnchors), "count")

	put("onecsr.fourapprox_ms", perInst("onecsr.fourapprox")/1e6, "ms")

	st := ps.stats
	put("improve.solve_ms", perInst("improve.solve")/1e6, "ms")
	put("improve.alloc_mb_per_inst", float64(ps.improveBytes)/n/(1<<20), "MB")
	put("improve.rounds", float64(st.Rounds), "count")
	put("improve.evaluated", float64(st.Evaluated), "count")
	put("improve.accepted", float64(st.Accepted), "count")
	put("improve.popped", float64(st.Popped), "count")
	put("improve.resimulated", float64(st.Resimulated), "count")
	put("improve.skipped", float64(st.Skipped), "count")
	put("improve.enum_refreshed", float64(st.EnumRefreshed), "count")
	put("improve.enum_reused", float64(st.EnumReused), "count")
	put("improve.accept_ratio", ratio(int64(st.Accepted), int64(st.Evaluated)), "ratio")
	put("improve.enum_reuse_ratio", ratio(int64(st.EnumReused), int64(st.EnumReused+st.EnumRefreshed)), "ratio")

	cells := float64(max(ps.cells, 1))
	put("align.ns_per_cell", float64(ps.self["align.score"].Nanoseconds())/cells, "ns")
	put("align.int_ns_per_cell", float64(ps.self["align.int_score"].Nanoseconds())/cells, "ns")
	put("core.conjecture_us", perInst("core.conjecture")/1e3, "us")

	put("serve.overhead_ms_p50", quantile(out.overheads, 0.5), "ms")
	put("serve.bytes_streamed", out.bytesStreamed, "bytes")
	put("serve.tenant_sigma_hit_ratio", out.tenantHitRatio, "ratio")

	put("load.lag_ms_p90", quantile(out.lags, 0.9), "ms")
	put("trace.overhead_share", quantile(ps.overheads, 0.5), "share")
	put("trace.unattributed_share", ps.rootSelf.Seconds()/ps.tracedWall.Seconds(), "share")
	put("runtime.peak_rss_mb", peakRSSMB(), "MB")
	put("speed.probe_ms", pr.mean(), "ms")
	put("speed.probe_cpu_ms", quantile(pr.cpu, 0.5), "ms")
	put("runtime.gc_cycles", float64(out.gcs), "count")
	put("fail_share", ratio(int64(out.failed), int64(out.attempted)), "share")
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
