package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"runtime/debug"
	"time"

	fragalign "repro"
	"repro/internal/core"
	"repro/internal/encoding"
)

// runOut is what one timed phase measured.
type runOut struct {
	setup      []float64 // seconds per set-up
	elapsed    time.Duration
	cpu        time.Duration // process CPU time in the timed phase
	attempted  int
	failed     int
	completed  int
	walls      []float64 // Result.Wall per instance, ms
	lats       []float64 // request latency, ms
	ttfrs      []float64 // time to first result record, ms
	queueWaits []float64 // ticket latency minus Result.Wall, ms
	lags       []float64 // open loop: send time minus scheduled time, ms
	overheads  []float64 // serve: single-instance request latency minus its solve wall, ms
	peakMB     float64
	gcs        uint64
	busyShare  float64
	counters   fragalign.BatchCounters
	q          *qualityTable
	problems   []string
	// serve-mixed only
	bytesStreamed  float64
	tenantHitRatio float64
}

func (o *runOut) fail(err error) {
	o.failed++
	if len(o.problems) < 10 {
		o.problems = append(o.problems, err.Error())
	}
}

func newPool(sp spec) *fragalign.BatchPool {
	opts := []fragalign.Option{fragalign.WithShards(sp.shards), fragalign.WithFourApproxSeed(true)}
	if sp.intScore {
		opts = append(opts, fragalign.WithIntScore(true))
	}
	if sp.seeded {
		opts = append(opts, fragalign.WithSeededCandidates(true))
	}
	return fragalign.NewBatchPool(fragalign.CSRImprove, opts...)
}

// setupClosed starts a pool and fills its σ cache by solving the warm-up
// instance, decoded through the interner the timed phase will use.
func setupClosed(sp spec, warm item) (*fragalign.BatchPool, *encoding.SigmaInterner, error) {
	si := encoding.NewSigmaInterner()
	pool := newPool(sp)
	in, err := decodeOne(warm.line, si)
	if err == nil {
		var t *fragalign.BatchTicket
		if t, err = pool.Submit(context.Background(), in); err == nil {
			var res *fragalign.Result
			if res, err = t.Wait(); err == nil {
				err = checkResult(in, res)
			}
		}
	}
	if err != nil {
		pool.Close()
		return nil, nil, err
	}
	return pool, si, nil
}

var errStop = errors.New("stop")

// runClosed is the csrbatch shape with one instance in flight: decode a
// JSONL stream, submit each instance to the batch pool and wait for it,
// check the result and write its result record, until the run's time is up
// and at least the quality instances were done. The speed probe runs
// between instances, so nothing else runs while it does.
func runClosed(sp spec, in *inputs, seconds float64, tr *tracer, pr *prober) (*runOut, error) {
	var data []byte
	for _, it := range in.items {
		data = append(data, it.line...)
	}
	out := &runOut{q: newQualityTable(sp.quality)}
	var pool *fragalign.BatchPool
	var si *encoding.SigmaInterner
	for r := 0; r < sp.reps; r++ {
		if pool != nil {
			pool.Close()
			pool, si = nil, nil
		}
		// Return all freed memory to the OS, so every set-up faults its
		// memory in as a fresh process does. Left to the background
		// scavenger, whether the previous set-up's pages were still mapped
		// moved batch-dense's median set-up time by a third between runs
		// of one seed.
		debug.FreeOSMemory()
		t0 := time.Now()
		p, s, err := setupClosed(sp, in.warm[0])
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
		pool, si = p, s
		pr.probe()
	}
	defer pool.Close()
	runtime.GC()

	heap := startHeapSampler()
	c0 := pool.Counters()
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	pr.phase = 0
	var probing time.Duration
	n := 0
	var feedErr error
	for feedErr == nil {
		root := tr.begin("encoding.read_jsonl", 0, -1)
		feedErr = encoding.ReadJSONLWith(bytes.NewReader(data), si, func(x *core.Instance) error {
			if n >= sp.quality && !time.Now().Before(deadline) {
				return errStop
			}
			k := n
			n++
			out.attempted++
			sub := tr.begin("batch.submit", root, k)
			at := time.Now()
			t, err := pool.Submit(context.Background(), x)
			tr.end(sub)
			var res *fragalign.Result
			if err == nil {
				res, err = t.Wait()
			}
			done := time.Now()
			tr.record("batch.ticket", root, k, at, done)
			if err == nil {
				err = checkResult(x, res)
			}
			if err != nil {
				out.fail(err)
			} else {
				out.completed++
				wall := ms(res.Wall)
				lat := ms(done.Sub(at))
				out.walls = append(out.walls, wall)
				out.lats = append(out.lats, lat)
				out.queueWaits = append(out.queueWaits, lat-wall)
				out.q.put(k, res, in.items[k%len(in.items)].truth)
				rec := encoding.ResultRecord{Index: k, Name: x.Name, Algorithm: string(res.Algorithm),
					Score: res.Score, Matches: len(res.Solution.Matches), WallMS: wall}
				if res.Stats != nil {
					rec.Rounds = res.Stats.Rounds
				}
				ws := tr.begin("encoding.write_result", root, k)
				if err := encoding.WriteJSONLResult(io.Discard, &rec); err != nil {
					out.fail(err)
				}
				tr.end(ws)
			}
			p0 := time.Now()
			if d := pr.keepShare(p0.Sub(start) - probing); d > 0 {
				probing += d
				tr.record("speed.probe", root, k, p0, time.Now())
			}
			return nil
		})
		tr.end(root)
	}
	out.elapsed = time.Since(start) - probing
	out.cpu = cpuTime() - cpu0 - probing // the probe is single-threaded
	out.peakMB, out.gcs = heap.finish()
	if !errors.Is(feedErr, errStop) {
		return nil, feedErr
	}
	out.ttfrs = out.lats
	out.counters = pool.Counters()
	out.busyShare = busyShare(c0, out.counters, out.elapsed)
	return out, nil
}

// busyShare is the shards' summed solve time between two counter snapshots
// over the time the shards had.
func busyShare(c0, c1 fragalign.BatchCounters, elapsed time.Duration) float64 {
	var busy time.Duration
	for i := range c1.ShardBusy {
		busy += c1.ShardBusy[i] - c0.ShardBusy[i]
	}
	if elapsed <= 0 || len(c1.ShardBusy) == 0 {
		return 0
	}
	return float64(busy) / float64(elapsed) / float64(len(c1.ShardBusy))
}
