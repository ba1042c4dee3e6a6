package main

import (
	"bytes"
	"fmt"

	fragalign "repro"
	"repro/internal/core"
	"repro/internal/encoding"
)

// decodeOne decodes a single JSONL instance line through si.
func decodeOne(line []byte, si *encoding.SigmaInterner) (*core.Instance, error) {
	var in *core.Instance
	err := encoding.ReadJSONLWith(bytes.NewReader(line), si, func(x *core.Instance) error {
		in = x
		return nil
	})
	if err == nil && in == nil {
		err = fmt.Errorf("no instance in line")
	}
	return in, err
}

// checkResult is the output check every solved instance passes: its match
// set must realize a conjecture pair over the instance it was solved for,
// and its Score must equal the sum of its match scores.
func checkResult(in *core.Instance, res *fragalign.Result) error {
	if res == nil || res.Solution == nil {
		return fmt.Errorf("%s: no solution", in.Name)
	}
	if _, err := res.Solution.BuildConjecture(in); err != nil {
		return fmt.Errorf("%s: %w", in.Name, err)
	}
	sum := 0.0
	for _, mt := range res.Solution.Matches {
		sum += mt.Score
	}
	if sum != res.Score {
		return fmt.Errorf("%s: score %v but matches sum to %v", in.Name, res.Score, sum)
	}
	return nil
}

// quality is Score over the ground-truth layout's score, and the mean over
// H and M of the inferred layouts' pairwise order accuracy.
func quality(res *fragalign.Result, truth float64) (ratio, acc float64) {
	if truth > 0 {
		ratio = res.Score / truth
	}
	h := fragalign.RecoveryAccuracy(res, fragalign.SpeciesH).PairOrder
	m := fragalign.RecoveryAccuracy(res, fragalign.SpeciesM).PairOrder
	return ratio, (h + m) / 2
}

// qualityTable holds per-instance quality so the means are summed in
// instance order whatever order results arrive in; the metrics then repeat
// bit for bit on a given seed.
type qualityTable struct {
	ratio, acc []float64
	set        []bool
}

func newQualityTable(n int) *qualityTable {
	return &qualityTable{ratio: make([]float64, n), acc: make([]float64, n), set: make([]bool, n)}
}

func (q *qualityTable) put(i int, res *fragalign.Result, truth float64) {
	if i < len(q.set) {
		q.ratio[i], q.acc[i] = quality(res, truth)
		q.set[i] = true
	}
}

// means returns the two quality metrics, or an error if any instance of the
// table was not solved.
func (q *qualityTable) means() (ratio, acc float64, err error) {
	for i := range q.set {
		if !q.set[i] {
			return 0, 0, fmt.Errorf("quality instance %d has no result", i)
		}
		ratio += q.ratio[i]
		acc += q.acc[i]
	}
	n := float64(len(q.set))
	return ratio / n, acc / n, nil
}
