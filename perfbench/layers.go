package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"github.com/oiraid/oiraid/internal/engine"
)

// tracedOutcome is one single-client phase with the measurements the
// per-layer metrics need. The engine counters, CPU profile and shares
// are taken in the traced phase only; the Go runtime figures in both.
type tracedOutcome struct {
	res    *phaseResult
	probs  []error
	mem    [2]runtime.MemStats
	cpu    [2][]metrics.Sample
	eng    [2]engine.Stats
	prof   bytes.Buffer
	shares *cpuShares
}

// cpuClasses are the runtime's CPU-time estimates the GC share is
// computed from.
var cpuClasses = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/cpu/classes/idle:cpu-seconds"}

func readCPUClasses() []metrics.Sample {
	ss := make([]metrics.Sample, len(cpuClasses))
	for i, n := range cpuClasses {
		ss[i].Name = n
	}
	metrics.Read(ss)
	return ss
}

// gcShare is the garbage collector's share of the CPU time the process
// spent busy over the phase.
func (o *tracedOutcome) gcShare() float64 {
	d := make([]float64, len(cpuClasses))
	for i := range d {
		if o.cpu[0][i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		d[i] = o.cpu[1][i].Value.Float64() - o.cpu[0][i].Value.Float64()
	}
	if busy := d[1] - d[2]; busy > 0 {
		return d[0] / busy
	}
	return 0
}

// singleClientPhase sets up the workload once in runDir and runs it with
// one client, traced when tr is non-nil.
func singleClientPhase(w *workload, seed int64, window time.Duration, pay *payloads, tr *tracer, runDir string) (*tracedOutcome, error) {
	h := hooks{}
	if tr != nil {
		h = tr.hooks()
	}
	s, _, err := setupStack(w, pay, h, 1, runDir)
	if err != nil {
		return nil, err
	}
	orc := newOracle(int(w.items(s)), preloadCRC(pay, w.itemBytes()))
	out := &tracedOutcome{}
	cfg := phaseConfig{clients: 1, seed: seed, window: window, tr: tr}
	cfg.onStart = func(clk *clock) {
		runtime.ReadMemStats(&out.mem[0])
		out.cpu[0] = readCPUClasses()
		if tr == nil {
			return
		}
		tr.eng = s.eng
		out.eng[0] = s.eng.Stats()
		tr.start(clk)
		if err := pprof.StartCPUProfile(&out.prof); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: cpu profile: %v\n", err)
		}
	}
	res, err := runLoad(w, s, pay, orc, cfg)
	if tr != nil {
		pprof.StopCPUProfile()
		tr.stop()
		out.eng[1] = s.eng.Stats()
	}
	out.cpu[1] = readCPUClasses()
	runtime.ReadMemStats(&out.mem[1])
	if err != nil {
		s.close()
		return nil, err
	}
	out.res = res
	out.probs = finish(w, s, orc)
	return out, nil
}

// medianLatency is the median time of the successful requests in the
// window.
func medianLatency(res *phaseResult) float64 {
	var xs []float64
	for _, op := range res.ops {
		if op.ok && op.inWindow {
			xs = append(xs, float64(op.end-op.start))
		}
	}
	return median(xs)
}

// runTraced runs the workload with one client traced and then untraced,
// with the stacks' files in runDir, writes the spans to the spans file,
// and reports the per-layer metrics and the tracing overhead.
func runTraced(w *workload, seed int64, window time.Duration, runDir, spans string) (summary, error) {
	pay := newPayloads(seed, w.itemBytes())
	// The traced phase runs first: a process's first phase runs on a
	// colder runtime, so this order can only overstate the overhead.
	tr := newTracer()
	out, err := singleClientPhase(w, seed, window, pay, tr, runDir)
	if err != nil {
		return summary{}, fmt.Errorf("traced phase: %w", err)
	}
	base, err := singleClientPhase(w, seed, window, pay, nil, runDir)
	if err != nil {
		return summary{}, fmt.Errorf("untraced phase: %w", err)
	}
	if out.shares, err = parseCPUProfile(out.prof.Bytes()); err != nil {
		return summary{}, fmt.Errorf("cpu profile: %w", err)
	}
	a := attribute(tr.spans)
	if err := writeSpans(spans, a); err != nil {
		return summary{}, fmt.Errorf("write spans: %w", err)
	}
	m, err := perLayer(w, seed, window, out, base, tr, a)
	if err != nil {
		return summary{}, err
	}
	m["trace.overhead_pct"] = metric{(medianLatency(out.res)/medianLatency(base.res) - 1) * 100, "%"}
	sum := summary{Metrics: m}
	report(&sum, out.res, append(base.probs, out.probs...))
	sum.Attempted += base.res.attempted
	sum.Failed += base.res.failed
	sum.Correct = sum.Correct && base.res.failed == 0
	return sum, nil
}

// perLayer computes the per-layer metrics of a traced phase; the Go
// runtime figures come from the untraced phase base, so they hold none
// of the tracer's or the profiler's own work.
func perLayer(w *workload, seed int64, window time.Duration, out, base *tracedOutcome, tr *tracer, a attribution) (map[string]metric, error) {
	type sums struct {
		n                               int
		devReads, devWrites, devBusy    int64
		devWriteBytes                   int64
		jSyncs, jBytes, jSyncNs         int64
		rts, rtBytes                    int64
		engReads, engWrites, arrR, arrW int64
	}
	// A rebuild's device I/O cannot be told apart from a request's own,
	// so the per-request ratios cover only requests that did not overlap
	// a rebuild; the requests made while disks were failed but not yet
	// rebuilding are included, with their reconstruction reads.
	var rebuilds []span
	for _, s := range a.spans {
		if s.kind == opRebuild {
			rebuilds = append(rebuilds, s)
		}
	}
	clean := func(i int) bool {
		for _, r := range rebuilds {
			if a.spans[i].start < r.end && r.start < a.spans[i].end {
				return false
			}
		}
		return true
	}
	var get, put sums
	var rtts []float64
	var degGets, degReads int64
	for i, s := range a.spans {
		switch s.kind {
		case rootGet, rootPut:
			d := tr.deltas[i]
			if s.kind == rootGet && d.degraded {
				degGets++
				degReads += d.degReads
			}
			if !clean(i) {
				continue
			}
			t := &get
			if s.kind == rootPut {
				t = &put
			}
			t.n++
			t.engReads += d.engReads
			t.engWrites += d.engWrites
			t.arrR += d.arrReads
			t.arrW += d.arrWrites
			continue
		}
		p := a.parent[i]
		if p < 0 || a.spans[p].kind > rootPut || !clean(p) {
			continue
		}
		t := &get
		if a.spans[p].kind == rootPut {
			t = &put
		}
		switch s.kind {
		case devRead:
			t.devReads++
			t.devBusy += s.end - s.start
		case devWrite:
			t.devWrites++
			t.devBusy += s.end - s.start
			t.devWriteBytes += s.bytes
		case jWrite:
			t.jBytes += s.bytes
		case jSync:
			t.jSyncs++
			t.jSyncNs += s.end - s.start
		case netRT:
			t.rts++
			t.rtBytes += s.bytes
			rtts = append(rtts, float64(s.end-s.start)/1e6)
		}
	}
	sort.Float64s(rtts)
	per := func(x int64, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(x) / float64(n)
	}
	ops := get.n + put.n
	all := 0
	for _, s := range a.spans {
		if s.kind <= rootPut {
			all++
		}
	}
	sh := out.shares
	e0, e1 := out.eng[0], out.eng[1]
	m0, m1 := base.mem[0], base.mem[1]
	baseOps := int(base.res.attempted)

	an := tr.eng.Array().Analyzer()
	recon, err := reconstructUs(an, w.stripBytes, seed)
	if err != nil {
		return nil, fmt.Errorf("reconstruct timing: %w", err)
	}
	return map[string]metric{
		"server.client_cpu_share":  {sh.share(sh.client), "fraction"},
		"server.handler_cpu_share": {sh.share(sh.handler), "fraction"},

		"object.engine_writes_per_put": {per(put.engWrites, put.n), "count"},
		"object.engine_reads_per_get":  {per(get.engReads, get.n), "count"},
		"object.cpu_share":             {sh.share(sh.layer["object"]), "fraction"},

		"engine.lock_wait_us_per_op": {per(e1.LockWaitNs-e0.LockWaitNs, all) / 1e3, "us"},
		"engine.rebuild_batches":     {float64(e1.RebuildBatches - e0.RebuildBatches), "count"},
		"engine.cpu_share":           {sh.share(sh.layer["engine"]), "fraction"},

		"store.read_ops_per_get":                {per(get.arrR, get.n), "count"},
		"store.write_ops_per_put":               {per(put.arrW, put.n), "count"},
		"store.degraded_reads_per_degraded_get": {per(degReads, int(degGets)), "count"},
		"store.cpu_share":                       {sh.share(sh.layer["store"]), "fraction"},

		"core.plan_us":           {planUs(an, failurePatterns(an, seed, w.periodCount(window))), "us"},
		"core.cpu_share":         {sh.share(sh.layer["core"]), "fraction"},
		"erasure.reconstruct_us": {recon, "us"},
		"erasure.cpu_share":      {sh.share(sh.layer["erasure"]), "fraction"},
		"gf.xor_gbps":            {xorGBps(w.stripBytes, seed), "GB/s"},
		"gf.cpu_share":           {sh.share(sh.layer["gf"]), "fraction"},

		"device.reads_per_op":                {per(get.devReads+put.devReads, ops), "count"},
		"device.writes_per_op":               {per(get.devWrites+put.devWrites, ops), "count"},
		"device.busy_us_per_op":              {per(get.devBusy+put.devBusy, ops) / 1e3, "us"},
		"device.bytes_written_per_user_byte": {per(put.devWriteBytes, put.n) / float64(w.itemBytes()), "ratio"},

		"journal.syncs_per_put":   {per(put.jSyncs, put.n), "count"},
		"journal.bytes_per_put":   {per(put.jBytes, put.n), "B"},
		"journal.sync_us_per_put": {per(put.jSyncNs, put.n) / 1e3, "us"},

		"netdev.round_trips_per_put": {per(put.rts, put.n), "count"},
		"netdev.round_trips_per_get": {per(get.rts, get.n), "count"},
		"netdev.rtt_p50_ms":          {percentile(rtts, 0.5), "ms"},
		"netdev.bytes_per_put":       {per(put.rtBytes, put.n), "B"},

		"go.allocs_per_op":      {per(int64(m1.Mallocs-m0.Mallocs), baseOps), "count"},
		"go.alloc_bytes_per_op": {per(int64(m1.TotalAlloc-m0.TotalAlloc), baseOps), "B"},
		"go.gc_cpu_share":       {base.gcShare(), "fraction"},
	}, nil
}
