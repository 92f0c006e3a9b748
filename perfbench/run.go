package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/oiraid/oiraid/internal/core"
	"github.com/oiraid/oiraid/internal/server"
)

// setupReps is how many times a measured run builds and preloads its
// stack; setup_s is the median and the last stack serves the load.
const setupReps = 5

// period is one operator recovery period.
type period struct {
	disks   []int
	rebuild time.Duration
	// from and to bound the rebuild on the run clock.
	from, to int64
}

// phaseResult is what one load phase produced.
type phaseResult struct {
	ops       []opRec
	periods   []period
	steal     []stealSample // the host's CPU steal over the phase
	window    time.Duration
	errs      []error
	attempted int64
	failed    int64
}

// phaseConfig parameterises one load phase.
type phaseConfig struct {
	clients int
	seed    int64
	window  time.Duration
	tr      *tracer // nil: untraced
	// onStart runs when the clock starts, before any request.
	onStart func(clk *clock)
}

// failurePatterns returns the disks the operator fails in each of n
// periods: even periods fail one disk, odd periods a triple. Singles walk
// seeded permutations of the disks. Triples come in blocks of three
// partitions of the disks: one whose triples all peel in two phases (on
// v=9, a parallel class of the design's lines) and two whose triples all
// need three, in seeded order. So every 18 periods fail each disk once
// alone and three times in a triple, and rebuild the same mix of shallow
// and deep triples, whatever the seed: the zipf hot keys sit on the same
// few disks for every seed, and neither the time those disks spend failed
// nor the decode depth varies from run to run.
func failurePatterns(an *core.Analyzer, seed int64, n int) [][]int {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed0f))
	var singles, triples [][]int
	out := make([][]int, n)
	for i := range out {
		if i%2 == 0 {
			if len(singles) == 0 {
				for _, d := range rng.Perm(daemonDisks) {
					singles = append(singles, []int{d})
				}
			}
			out[i], singles = singles[0], singles[1:]
			continue
		}
		if len(triples) == 0 {
			triples = append(triples, partition(an, rng, 2)...)
			triples = append(triples, partition(an, rng, 3)...)
			triples = append(triples, partition(an, rng, 3)...)
			rng.Shuffle(len(triples), func(a, b int) { triples[a], triples[b] = triples[b], triples[a] })
		}
		out[i], triples = triples[0], triples[1:]
	}
	return out
}

// partition draws seeded partitions of the disks into triples until one
// has every triple's recovery plan take the given number of phases.
func partition(an *core.Analyzer, rng *rand.Rand, phases int) [][]int {
	for {
		p := rng.Perm(daemonDisks)
		var out [][]int
		for j := 0; j < daemonDisks; j += 3 {
			t := append([]int(nil), p[j:j+3]...)
			sort.Ints(t)
			if an.Plan(t, core.PlanOptions{}).Phases != phases {
				break
			}
			out = append(out, t)
		}
		if len(out) == daemonDisks/3 {
			return out
		}
	}
}

// balancedPeriods is the length of a schedule in which every disk fails
// equally often alone and in a triple.
const balancedPeriods = 2 * daemonDisks

// periodCount is how many operator periods a run of the workload holds:
// the recovery count, or as many whole balanced schedules as fit in the
// window (at least one period when none fits).
func (w *workload) periodCount(window time.Duration) int {
	if w.recovery > 0 {
		return w.recovery
	}
	n := int(window / w.period)
	if n >= balancedPeriods {
		n -= n % balancedPeriods
	}
	return max(n, 1)
}

// newClient builds a server.Client whose transport holds at most conns
// connections, and a func that closes them.
func newClient(url string, conns int) (*server.Client, func()) {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	c := server.NewClientWithOptions(url, server.ClientOptions{
		MaxRetries: 3,
		HTTPClient: &http.Client{Transport: tr, Timeout: time.Minute},
	})
	return c, tr.CloseIdleConnections
}

// runLoad drives the stack with closed-loop clients for the window, runs
// the operator's schedule, and returns every request record.
func runLoad(w *workload, s *stack, pay *payloads, orc *oracle, cfg phaseConfig) (*phaseResult, error) {
	conns := cfg.clients
	if n := runtime.NumCPU(); conns > n {
		conns = n
	}
	hc, closeHC := newClient(s.url, conns)
	defer closeHC()
	opc, closeOPC := newClient(s.url, 1)
	defer closeOPC()
	items := w.items(s)
	patterns := failurePatterns(s.g.Analyzer(), cfg.seed, w.periodCount(cfg.window))

	clk := &clock{t0: time.Now()}
	if cfg.onStart != nil {
		cfg.onStart(clk)
	}
	steal := startStealLog(clk)
	defer steal.stop()
	windowEnd := int64(cfg.window) + 1
	var degraded atomic.Bool
	stop := make(chan struct{})
	ctx := context.Background()

	clients := make([]*client, cfg.clients)
	var wg sync.WaitGroup
	for i := range clients {
		gen, err := w.generator(items, cfg.seed*1000+int64(i))
		if err != nil {
			return nil, err
		}
		cl := &client{w: w, c: hc, gen: gen, pay: pay, orc: orc, clk: clk, buf: make([]byte, w.itemBytes())}
		clients[i] = cl
		wg.Add(1)
		go pprof.Do(ctx, pprof.Labels("role", "client"), func(ctx context.Context) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				acc := cl.gen.Next()
				deg := degraded.Load()
				var rec opRec
				if cfg.tr != nil {
					rec = cfg.tr.root(cl, ctx, acc, deg)
				} else {
					rec = cl.do(ctx, acc)
				}
				rec.degraded = deg
				rec.inWindow = rec.start < windowEnd
				cl.ops = append(cl.ops, rec)
			}
		})
	}

	// The operator: a fixed schedule inside the window or after it; the
	// clients run until the last rebuild returns. A rebuild that overruns
	// its period delays the next one rather than dropping it.
	res := &phaseResult{window: cfg.window}
	opErr := func() error {
		sleepUntil := func(t int64) {
			if d := time.Duration(t - clk.now()); d > 0 {
				time.Sleep(d)
			}
		}
		first := int64(1)
		if w.recovery > 0 {
			first = windowEnd
		}
		for i, disks := range patterns {
			sleepUntil(first + int64(i)*int64(w.period))
			p := period{disks: disks}
			failAt := clk.now()
			degraded.Store(true)
			for _, d := range disks {
				if err := cfg.tr.operator(opFail, func() error { return opc.FailDisk(d) }); err != nil {
					return fmt.Errorf("fail disk %d: %w", d, err)
				}
			}
			sleepUntil(failAt + int64(w.hold))
			t := time.Now()
			p.from = clk.now()
			if err := cfg.tr.operator(opRebuild, func() error { return opc.Rebuild(true) }); err != nil {
				return fmt.Errorf("rebuild of %v: %w", disks, err)
			}
			p.rebuild = time.Since(t)
			p.to = clk.now()
			degraded.Store(false)
			res.periods = append(res.periods, p)
		}
		sleepUntil(windowEnd)
		return nil
	}()
	close(stop)
	wg.Wait()
	res.steal = steal.stop()
	if opErr != nil {
		return nil, opErr
	}
	for _, cl := range clients {
		res.ops = append(res.ops, cl.ops...)
		res.errs = append(res.errs, cl.errs...)
	}
	for _, op := range res.ops {
		res.attempted++
		if !op.ok {
			res.failed++
		}
	}
	return res, nil
}

// setupStack builds and preloads a stack reps times in runDir, keeping
// the last, and returns the setup wall time of each.
func setupStack(w *workload, pay *payloads, h hooks, reps int, runDir string) (*stack, []float64, error) {
	var times []float64
	for rep := 0; rep < reps; rep++ {
		t := time.Now()
		s, err := buildStack(w, h, runDir)
		if err != nil {
			return nil, nil, fmt.Errorf("build: %w", err)
		}
		if err := preload(w, s, pay); err != nil {
			s.close()
			return nil, nil, err
		}
		times = append(times, time.Since(t).Seconds())
		if rep == reps-1 {
			return s, times, nil
		}
		if err := s.close(); err != nil {
			return nil, nil, fmt.Errorf("teardown: %w", err)
		}
		runtime.GC()
		debug.FreeOSMemory()
	}
	return nil, nil, errors.New("no setup repetitions")
}

// finish runs the post-run checks: a clean fsck over HTTP, a clean
// shutdown and, for durable workloads, a remount that re-reads every
// acknowledged object. It returns the problems found.
func finish(w *workload, s *stack, orc *oracle) []error {
	defer s.closeMeta()
	var probs []error
	c, closeC := newClient(s.url, 1)
	rep, err := c.Fsck(false)
	closeC()
	switch {
	case err != nil:
		probs = append(probs, fmt.Errorf("fsck: %w", err))
	case !rep.Clean || rep.ChecksumErrors != 0 || rep.ParityErrors != 0:
		probs = append(probs, fmt.Errorf("fsck not clean: %d checksum errors, %d parity errors", rep.ChecksumErrors, rep.ParityErrors))
	}
	if err := s.shutdown(); err != nil {
		probs = append(probs, fmt.Errorf("shutdown: %w", err))
	}
	if w.kind == kindDurable {
		lost, err := remountCheck(w, s, orc)
		if err != nil {
			probs = append(probs, fmt.Errorf("remount: %w", err))
		}
		if lost > 0 {
			probs = append(probs, fmt.Errorf("%d acknowledged objects lost after remount", lost))
		}
	}
	return probs
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// runMeasured is the untraced run: the end-to-end metrics. The stacks'
// files live in runDir.
func runMeasured(w *workload, seed int64, window time.Duration, runDir string) (summary, error) {
	pay := newPayloads(seed, w.itemBytes())
	s, setups, err := setupStack(w, pay, hooks{}, setupReps, runDir)
	if err != nil {
		return summary{}, err
	}
	orc := newOracle(int(w.items(s)), preloadCRC(pay, w.itemBytes()))
	res, err := runLoad(w, s, pay, orc, phaseConfig{clients: w.clients, seed: seed, window: window})
	if err != nil {
		s.close()
		return summary{}, err
	}
	probs := finish(w, s, orc)
	return endToEnd(res, setups, probs), nil
}

// report prints the problems found and folds them into the summary.
func report(sum *summary, res *phaseResult, probs []error) {
	for _, e := range res.errs {
		fmt.Fprintf(os.Stderr, "perfbench: request failed: %v\n", e)
	}
	for _, p := range probs {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", p)
	}
	sum.Attempted = res.attempted
	sum.Failed = res.failed
	sum.Correct = res.failed == 0 && len(probs) == 0
	if sum.Attempted == 0 {
		sum.Attempted = 1
		sum.Failed = 1
		sum.Correct = false
	}
}

// endToEnd computes the end-to-end metrics of a measured run. The get
// and put latencies cover requests issued in the window while no disk was
// failed or rebuilding; GETs issued while one was are the degraded GETs,
// wherever they fall. Splitting the two keeps each percentile inside one
// regime: a p99 over both lands where the share of stalled requests sets
// it, and that share moves with every run's timing. Every latency and
// rebuild time is taken over the samples that ran while the host stole
// least CPU (quiet), and the throughput over the time in the window when
// it stole least (quietSpan); the healthy p99s and the throughput over
// the whole window are printed as notes.
func endToEnd(res *phaseResult, setups []float64, probs []error) summary {
	var gets, puts, dgets, dputs, r1, r3 []tailSample
	sample := func(v float64, from, to int64) tailSample {
		return tailSample{v, stolenTicks(res.steal, from, to)}
	}
	windowEnd := int64(res.window) + 1
	limit, span := quietSpan(res.steal, windowEnd)
	var bytes, quietBytes int64
	for _, op := range res.ops {
		if !op.ok {
			continue
		}
		x := sample(float64(op.end-op.start)/1e6, op.start, op.end)
		if op.inWindow {
			bytes += int64(op.bytes)
			if x.stolen <= limit && op.end <= windowEnd {
				quietBytes += int64(op.bytes)
			}
		}
		switch {
		case op.degraded && op.write:
			dputs = append(dputs, x)
		case op.degraded:
			dgets = append(dgets, x)
		case !op.inWindow:
		case op.write:
			puts = append(puts, x)
		default:
			gets = append(gets, x)
		}
	}
	for _, p := range res.periods {
		x := sample(p.rebuild.Seconds(), p.from, p.to)
		if len(p.disks) == 1 {
			r1 = append(r1, x)
		} else {
			r3 = append(r3, x)
		}
	}
	qGets, qPuts, qDgets, qDputs := quiet(gets), quiet(puts), quiet(dgets), quiet(dputs)
	qR1, qR3 := quiet(r1), quiet(r3)
	failedFrac := float64(res.failed) / float64(max(res.attempted, 1))
	m := map[string]metric{
		"setup_s":             {median(setups), "s"},
		"get_p50_ms":          {percentile(qGets, 0.50), "ms"},
		"get_p99_ms":          {percentile(qGets, 0.99), "ms"},
		"put_p50_ms":          {percentile(qPuts, 0.50), "ms"},
		"put_p99_ms":          {percentile(qPuts, 0.99), "ms"},
		"throughput_mbps":     {float64(quietBytes) / span.Seconds() / 1e6, "MB/s"},
		"rss_peak_mb":         {peakRSSMB(), "MB"},
		"degraded_get_p50_ms": {percentile(qDgets, 0.50), "ms"},
		"degraded_get_p99_ms": {percentile(qDgets, 0.99), "ms"},
		"rebuild1_s":          {median(qR1), "s"},
		"rebuild3_s":          {median(qR3), "s"},
	}
	// failed_frac is zero on a correct run, so it is printed by name with
	// the sample counts; the summary carries it as attempted and failed.
	// Degraded PUTs are too few for a steady p99 outside degraded-rebuild,
	// so they are printed here rather than gated.
	notes := map[string]metric{
		"failed_frac":                {failedFrac, "fraction"},
		"get_samples":                {float64(len(gets)), "count"},
		"put_samples":                {float64(len(puts)), "count"},
		"degraded_get_samples":       {float64(len(dgets)), "count"},
		"degraded_put_samples":       {float64(len(dputs)), "count"},
		"rebuild1_samples":           {float64(len(r1)), "count"},
		"rebuild3_samples":           {float64(len(r3)), "count"},
		"get_quiet_samples":          {float64(len(qGets)), "count"},
		"put_quiet_samples":          {float64(len(qPuts)), "count"},
		"degraded_get_quiet_samples": {float64(len(qDgets)), "count"},
		"rebuild1_quiet_samples":     {float64(len(qR1)), "count"},
		"rebuild3_quiet_samples":     {float64(len(qR3)), "count"},
		"get_p99_all_ms":             {percentile(values(gets), 0.99), "ms"},
		"put_p99_all_ms":             {percentile(values(puts), 0.99), "ms"},
		"throughput_all_mbps":        {float64(bytes) / res.window.Seconds() / 1e6, "MB/s"},
		"throughput_quiet_s":         {span.Seconds(), "s"},
		"degraded_put_p50_ms":        {percentile(qDputs, 0.50), "ms"},
		"degraded_put_p99_ms":        {percentile(qDputs, 0.99), "ms"},
	}
	sum := summary{Metrics: m, notes: notes}
	report(&sum, res, probs)
	return sum
}
