package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// stealInterval is how often a load phase samples the host's CPU steal.
// /proc/stat counts steal in 10 ms ticks, so an interval of 100 ms on two
// CPUs reads zero ticks only when the host took less than about a twentieth
// of the machine.
const stealInterval = 100 * time.Millisecond

// stealSample is the machine's cumulative CPU steal, in clock ticks, at a
// time on the run clock.
type stealSample struct{ t, ticks int64 }

// stealLog samples the host's CPU steal every stealInterval from its start
// until stop.
type stealLog struct {
	samples []stealSample // written by the sampler until done is closed
	quit    chan struct{}
	done    chan struct{}
	once    sync.Once
}

func startStealLog(clk *clock) *stealLog {
	l := &stealLog{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		tick := time.NewTicker(stealInterval)
		defer tick.Stop()
		for {
			ticks, _ := cpuSteal()
			l.samples = append(l.samples, stealSample{clk.now(), ticks})
			select {
			case <-l.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return l
}

// stop takes a last sample, ends the sampler and waits for it. It may be
// called more than once.
func (l *stealLog) stop() []stealSample {
	l.once.Do(func() { close(l.quit) })
	<-l.done
	return l.samples
}

// stolenTicks is the most steal ticks the host took in one sampling
// interval that the request running over [start, end] overlaps; MaxInt64
// when the request lies outside the sampled span.
func stolenTicks(samples []stealSample, start, end int64) int64 {
	n := len(samples)
	if n < 2 || start < samples[0].t || end > samples[n-1].t {
		return math.MaxInt64
	}
	// Interval k runs from samples[k] to samples[k+1].
	first := sort.Search(n, func(k int) bool { return samples[k].t > start }) - 1
	last := sort.Search(n, func(k int) bool { return samples[k].t >= end }) - 1
	var most int64
	for k := first; k <= max(last, first); k++ {
		most = max(most, samples[k+1].ticks-samples[k].ticks)
	}
	return most
}

// tailSample is one timed call's value and the steal it ran under.
type tailSample struct {
	v      float64
	stolen int64
}

// quiet returns, sorted, the values of the samples that ran while the
// host stole least CPU: those that overlapped no sampling interval with
// more than L steal ticks, for the least L that keeps at least a quarter
// of the samples. With no steal, or none recorded, that is all of them.
//
// On a shared host the hypervisor's steal sets much of what a single
// closed-loop client sees: a request that loses its CPU for a few ms lands
// in the top percent, and the steal over a run varies several-fold from
// one run to the next. Samples in quiet intervals still pay for
// everything the program does, its garbage collection and lock waits
// included.
func quiet(xs []tailSample) []float64 {
	if len(xs) == 0 {
		return nil
	}
	xs = append([]tailSample(nil), xs...)
	sort.Slice(xs, func(i, j int) bool { return xs[i].stolen < xs[j].stolen })
	limit := xs[(len(xs)+3)/4-1].stolen
	var vs []float64
	for _, x := range xs {
		if x.stolen > limit {
			break
		}
		vs = append(vs, x.v)
	}
	sort.Float64s(vs)
	return vs
}

// values returns the samples' values, sorted.
func values(xs []tailSample) []float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = x.v
	}
	sort.Float64s(vs)
	return vs
}

// quietSpan is quiet for time: it returns the least L for which the
// sampling intervals with at most L steal ticks cover at least a quarter
// of [0, end) on the run clock, and the time in [0, end) they cover.
func quietSpan(samples []stealSample, end int64) (limit int64, span time.Duration) {
	type interval struct{ len, stolen int64 }
	var ivs []interval
	var total int64
	for k := 0; k+1 < len(samples) && samples[k].t < end; k++ {
		iv := interval{min(samples[k+1].t, end) - samples[k].t, samples[k+1].ticks - samples[k].ticks}
		ivs = append(ivs, iv)
		total += iv.len
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].stolen < ivs[j].stolen })
	var covered int64
	for i, iv := range ivs {
		covered += iv.len
		if 4*covered >= total && (i+1 == len(ivs) || ivs[i+1].stolen > iv.stolen) {
			return iv.stolen, time.Duration(covered)
		}
	}
	return 0, 0
}
