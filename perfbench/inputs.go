package main

import (
	"bytes"
	"math/rand"

	fragalign "repro"
	"repro/internal/encoding"
	"repro/internal/gen"
)

// spec sizes one workload. README.md says why each workload exists.
type spec struct {
	name     string
	regions  int  // ancestral regions per generated instance
	distinct int  // distinct instances generated per run (per tenant on serve-mixed)
	quality  int  // leading instances whose results give the quality metrics
	pass     int  // instances driven through the one-at-a-time pass
	shards   int  // batch pool shards (closed loops keep one instance in flight)
	intScore bool // fragalign.WithIntScore
	seeded   bool // fragalign.WithSeededCandidates
	serve    bool // open loop over an in-process serve.Server
	reps     int  // set-ups per run; setup_s is their median
}

var specs = []spec{
	{name: "batch-dense", regions: 150, distinct: 512, quality: 256, pass: 16, shards: 1, reps: 81},
	{name: "batch-int", regions: 150, distinct: 512, quality: 256, pass: 16, shards: 1, intScore: true, reps: 81},
	{name: "serve-mixed", regions: 20, distinct: 200, pass: 40, shards: 2, serve: true, reps: 81},
	{name: "genome-seeded", regions: 2000, distinct: 24, quality: 24, pass: 2, shards: 1, seeded: true, reps: 9},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// serve-mixed traffic: named tenants each own one canonical σ; every
// anonEvery-th request is anonymous and carries σ no other request shares.
var tenantNames = []string{"acme", "birch", "cobalt", "dune"}

const anonEvery = 8

// item is one generated instance as the program receives it: JSONL bytes.
type item struct {
	line   []byte
	truth  float64 // gen.Workload.TrueLayoutScore
	tenant string  // serve-mixed only; "" is anonymous
}

// inputs is everything a run generates from its seed before set-up.
type inputs struct {
	items []item
	// warm holds one warm-up line per shared σ (per named tenant on
	// serve-mixed): every region of the canonical table in one contig per
	// species, so a set-up solve compiles σ over the table's full ID range.
	warm []item
}

func genConfig(sp spec, seed int64) gen.Config {
	cfg := fragalign.DefaultGenConfig(seed)
	if sp.seeded {
		// genome-small's rearrangement and noise counts, scaled from its
		// region count down to sp.regions.
		cfg, _ = fragalign.GenPreset("genome-small", seed)
		f := float64(sp.regions) / float64(cfg.Regions)
		scale := func(n int) int { return int(float64(n)*f + 0.5) }
		cfg.Inversions = scale(cfg.Inversions)
		cfg.Translocations = scale(cfg.Translocations)
		cfg.Spurious = scale(cfg.Spurious)
		cfg.Canonical = nil
	}
	cfg.Regions = sp.regions
	return cfg
}

func encodeItem(w *gen.Workload) (item, error) {
	var buf bytes.Buffer
	if err := encoding.WriteJSONLine(&buf, w.Instance); err != nil {
		return item{}, err
	}
	return item{line: buf.Bytes(), truth: w.TrueLayoutScore}, nil
}

// warmItem is the warm-up instance over a canonical table: no deletions,
// no rearrangements and a single contig per species.
func warmItem(cfg gen.Config, c *gen.Canonical) (item, error) {
	cfg.Canonical = c
	cfg.DeleteProb = 0
	cfg.Inversions = 0
	cfg.Translocations = 0
	cfg.MeanContig = 1 << 30
	return encodeItem(gen.Generate(cfg))
}

// genInputs builds the run's instances from its seed alone.
func genInputs(sp spec, seed int64) (*inputs, error) {
	r := rand.New(rand.NewSource(seed))
	cfg := genConfig(sp, seed)
	out := &inputs{}
	if !sp.serve {
		ccfg := cfg
		ccfg.Seed = r.Int63()
		can := gen.NewCanonical(ccfg)
		w, err := warmItem(cfg, can)
		if err != nil {
			return nil, err
		}
		out.warm = append(out.warm, w)
		for i := 0; i < sp.distinct; i++ {
			c := cfg
			c.Seed = r.Int63()
			c.Canonical = can
			it, err := encodeItem(gen.Generate(c))
			if err != nil {
				return nil, err
			}
			out.items = append(out.items, it)
		}
		return out, nil
	}
	cans := make([]*gen.Canonical, len(tenantNames))
	for t, name := range tenantNames {
		ccfg := cfg
		ccfg.Seed = r.Int63()
		cans[t] = gen.NewCanonical(ccfg)
		w, err := warmItem(cfg, cans[t])
		if err != nil {
			return nil, err
		}
		w.tenant = name
		out.warm = append(out.warm, w)
	}
	// Interleave tenants so any prefix of items mixes them.
	for i := 0; i < sp.distinct; i++ {
		for t := 0; t <= len(tenantNames); t++ {
			c := cfg
			c.Seed = r.Int63()
			if t < len(tenantNames) {
				c.Canonical = cans[t]
			}
			it, err := encodeItem(gen.Generate(c))
			if err != nil {
				return nil, err
			}
			if t < len(tenantNames) {
				it.tenant = tenantNames[t]
			}
			out.items = append(out.items, it)
		}
	}
	return out, nil
}
