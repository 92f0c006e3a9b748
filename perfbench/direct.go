package main

import (
	"math/rand"
	"time"

	"github.com/oiraid/oiraid/internal/core"
	"github.com/oiraid/oiraid/internal/erasure"
	"github.com/oiraid/oiraid/internal/gf"
)

// directBudget is how long each direct layer timing runs.
const directBudget = 200 * time.Millisecond

// timeLoop calls fn until the budget is spent and returns the mean time
// per call.
func timeLoop(fn func()) time.Duration {
	n := 0
	t := time.Now()
	for time.Since(t) < directBudget {
		for i := 0; i < 16; i++ {
			fn()
		}
		n += 16
	}
	return time.Since(t) / time.Duration(n)
}

// xorGBps times gf.XorSlice on two strip-sized buffers.
func xorGBps(stripBytes int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	src, dst := make([]byte, stripBytes), make([]byte, stripBytes)
	rng.Read(src)
	rng.Read(dst)
	per := timeLoop(func() { gf.XorSlice(src, dst) })
	return float64(stripBytes) / per.Seconds() / 1e9
}

// reconstructUs times Code.Reconstruct of one lost shard at each of the
// layout's stripe shapes and returns the mean over shapes in µs.
func reconstructUs(an *core.Analyzer, stripBytes int, seed int64) (float64, error) {
	rng := rand.New(rand.NewSource(seed))
	var sum float64
	shapes := an.StripeShapes()
	for _, sh := range shapes {
		code, err := erasure.NewCode(sh[0], sh[1])
		if err != nil {
			return 0, err
		}
		shards := erasure.AllocShards(sh[0], sh[1], stripBytes)
		for _, s := range shards[:sh[0]] {
			rng.Read(s)
		}
		if err := code.Encode(shards); err != nil {
			return 0, err
		}
		present := make([]bool, len(shards))
		for i := range present {
			present[i] = true
		}
		var rerr error
		lost := 0
		per := timeLoop(func() {
			present[lost] = false
			if err := code.Reconstruct(shards, present); err != nil && rerr == nil {
				rerr = err
			}
			present[lost] = true
			lost = (lost + 1) % len(shards)
		})
		if rerr != nil {
			return 0, rerr
		}
		sum += float64(per) / 1e3
	}
	return sum / float64(len(shapes)), nil
}

// planUs times Analyzer.Plan over the workload's failure patterns and
// returns the mean per plan in µs.
func planUs(an *core.Analyzer, patterns [][]int) float64 {
	if len(patterns) == 0 {
		return 0
	}
	i := 0
	per := timeLoop(func() {
		an.Plan(patterns[i%len(patterns)], core.PlanOptions{})
		i++
	})
	return float64(per) / 1e3
}
