package main

import (
	"bytes"
	"runtime"
	"time"

	fragalign "repro"
	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/improve"
	"repro/internal/onecsr"
	"repro/internal/score"
	"repro/internal/seed"
)

// passOut is what the one-at-a-time pass measured. Times are self times of
// the traced calls; counts are summed over the pass's instances.
type passOut struct {
	n            int
	self         map[string]time.Duration
	compiles     int
	compileBytes uint64
	improveBytes uint64
	stats        improve.Stats
	seedPairs    float64 // Σ admitted pairs / (|H|·|M|)
	seedAnchors  int
	cells        int64         // H×M DP cells per align sweep, summed
	tracedWall   time.Duration // every traced root span: prepare and instances
	// overheads holds, per instance, its traced run's wall over its
	// untraced run's, minus one.
	overheads     []float64
	rootSelf      time.Duration
	checkProblems []string
}

// runPass drives the first sp.pass instances one at a time through each
// layer's public entry point, in the order a solve uses them. Every
// instance runs twice, traced and untraced, alternating which goes first;
// the median difference is the tracing overhead. σ is decoded and compiled
// once per distinct table, as the batch pool's σ cache does.
func runPass(sp spec, in *inputs, tr *tracer) *passOut {
	runtime.GC() // release the timed phase's pool and σ before compiling anew
	out := &passOut{n: sp.pass}
	items := in.items[:sp.pass]
	si := encoding.NewSigmaInterner()
	compiled := map[score.Scorer]*score.Compiled{}
	prepared := make([]*core.Instance, len(items))

	prep := tr.begin("pass.prepare", 0, -1)
	for i, it := range items {
		dec := tr.begin("encoding.decode", prep, i)
		x, err := decodeOne(it.line, si)
		tr.end(dec)
		if err != nil {
			out.checkProblems = append(out.checkProblems, err.Error())
			return out
		}
		c, ok := compiled[x.Sigma]
		if !ok {
			a0 := allocatedBytes()
			cs := tr.begin("score.compile", prep, i)
			c = score.Compile(x.Sigma, x.MaxSymbolID())
			tr.end(cs)
			out.compileBytes += allocatedBytes() - a0
			out.compiles++
			compiled[x.Sigma] = c
		}
		p := *x
		p.Sigma = c
		prepared[i] = &p
	}
	tr.end(prep)
	// Derived σ forms are built lazily and cached on the matrix; build them
	// before the pass so neither the traced nor the untraced run pays them.
	for _, c := range compiled {
		c.Transposed()
		if ci := c.Int(); sp.intScore {
			ci.Transposed()
		}
	}
	out.tracedWall += tr.duration(prep)
	roots := []int{prep}

	// One untimed run fills the caches later runs find warm.
	passInstance(sp, prepared[0], nil, 0, 0, &passOut{})
	runtime.GC()
	for i := range items {
		var traced, untraced time.Duration
		for k := 0; k < 2; k++ {
			if (i+k)%2 == 0 {
				scratch := &passOut{}
				root := tr.begin("pass.instance", 0, i)
				passInstance(sp, prepared[i], tr, root, i, scratch)
				tr.end(root)
				out.checkProblems = append(out.checkProblems, scratch.checkProblems...)
				traced = tr.duration(root)
				roots = append(roots, root)
			} else {
				t0 := time.Now()
				passInstance(sp, prepared[i], nil, 0, i, out)
				untraced = time.Since(t0)
			}
		}
		out.tracedWall += traced
		out.overheads = append(out.overheads, traced.Seconds()/untraced.Seconds()-1)
	}
	out.self = map[string]time.Duration{}
	for _, r := range roots {
		for name, d := range tr.selfTimes(r) {
			out.self[name] += d
		}
	}
	out.rootSelf = out.self["pass.prepare"] + out.self["pass.instance"]
	return out
}

// passInstance runs one prepared instance through the layers, adding its
// counts and allocations to out. Traced and untraced runs do the same
// bookkeeping, so they differ only by the spans.
func passInstance(sp spec, in *core.Instance, tr *tracer, root, req int, out *passOut) {
	if sp.seeded {
		s := tr.begin("seed.candidates", root, req)
		res := seed.Candidates(in, seed.DefaultParams())
		tr.end(s)
		out.seedPairs += float64(res.Stats.Pairs) / float64(len(in.H)*len(in.M))
		out.seedAnchors += res.Stats.Anchors
	}

	s := tr.begin("onecsr.fourapprox", root, req)
	_, faErr := onecsr.FourApprox(in)
	tr.end(s)

	a0 := allocatedBytes()
	s = tr.begin("improve.solve", root, req)
	sol, stats, err := improve.Improve(in, improve.Options{
		Methods:            improve.AllMethods,
		Eps:                0.05,
		SeedWithFourApprox: true,
		IntScore:           sp.intScore,
		Seeded:             sp.seeded,
	})
	tr.end(s)
	out.improveBytes += allocatedBytes() - a0
	addStats(&out.stats, stats)
	if faErr != nil {
		out.checkProblems = append(out.checkProblems, faErr.Error())
	}
	if err != nil {
		out.checkProblems = append(out.checkProblems, err.Error())
		return
	}

	s = tr.begin("core.conjecture", root, req)
	_, cerr := sol.BuildConjecture(in)
	tr.end(s)
	if cerr != nil {
		out.checkProblems = append(out.checkProblems, cerr.Error())
	}

	c := in.Sigma.(*score.Compiled)
	ci := c.Int()
	s = tr.begin("align.score", root, req)
	var cells int64
	for _, h := range in.H {
		for _, m := range in.M {
			align.Score(h.Regions, m.Regions, c)
			cells += int64(len(h.Regions) * len(m.Regions))
		}
	}
	tr.end(s)
	s = tr.begin("align.int_score", root, req)
	for _, h := range in.H {
		for _, m := range in.M {
			align.Score(h.Regions, m.Regions, ci)
		}
	}
	tr.end(s)
	out.cells += cells

	rec := encoding.ResultRecord{Index: req, Name: in.Name, Algorithm: string(fragalign.CSRImprove),
		Score: sol.Score(), Matches: len(sol.Matches), Rounds: stats.Rounds}
	var buf bytes.Buffer
	s = tr.begin("encoding.encode", root, req)
	werr := encoding.WriteJSONLResult(&buf, &rec)
	tr.end(s)
	if werr != nil {
		out.checkProblems = append(out.checkProblems, werr.Error())
	}
}

func addStats(dst *improve.Stats, s improve.Stats) {
	dst.Rounds += s.Rounds
	dst.Evaluated += s.Evaluated
	dst.Accepted += s.Accepted
	dst.Popped += s.Popped
	dst.Resimulated += s.Resimulated
	dst.Skipped += s.Skipped
	dst.EnumRefreshed += s.EnumRefreshed
	dst.EnumReused += s.EnumReused
}
