package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/oiraid/oiraid/internal/cluster"
	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/store"
	loadgen "github.com/oiraid/oiraid/internal/workload"
)

type spanKind uint8

const (
	rootGet spanKind = iota
	rootPut
	opFail
	opRebuild
	devRead
	devWrite
	jWrite
	jSync
	netRT
)

var spanNames = [...]string{
	rootGet:   "client.get",
	rootPut:   "client.put",
	opFail:    "operator.fail_disk",
	opRebuild: "operator.rebuild",
	devRead:   "device.read",
	devWrite:  "device.write",
	jWrite:    "journal.write",
	jSync:     "journal.sync",
	netRT:     "netdev.round_trip",
}

// span is one timed call at a layer boundary, on the run clock.
type span struct {
	kind       spanKind
	start, end int64
	bytes      int64
}

// statDelta is the engine and array counter movement across one root
// call; with one client it belongs to that call, plus whatever a
// concurrent rebuild did meanwhile. degraded records whether the call
// was issued while a disk was failed or rebuilding.
type statDelta struct {
	engReads, engWrites, arrReads, arrWrites, degReads int64
	degraded                                           bool
}

// tracer records spans in memory while on. The clients' requests are
// the roots; operator calls are roots of their own; device, journal and
// netdev calls are children, matched to the root whose interval holds
// them once the run is over.
type tracer struct {
	eng *engine.Engine
	clk atomic.Pointer[clock]

	mu     sync.Mutex
	spans  []span
	deltas map[int]statDelta // root span index → counter movement
}

func newTracer() *tracer { return &tracer{deltas: map[int]statDelta{}} }

// start switches recording on with the phase's clock.
func (t *tracer) start(clk *clock) { t.clk.Store(clk) }

// stop switches recording off.
func (t *tracer) stop() { t.clk.Store(nil) }

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// timed runs fn and records it as a span of kind when recording is on.
func (t *tracer) timed(kind spanKind, bytes int64, fn func() error) error {
	clk := t.clk.Load()
	if clk == nil {
		return fn()
	}
	s := clk.now()
	err := fn()
	t.add(span{kind: kind, start: s, end: clk.now(), bytes: bytes})
	return err
}

// operator records an operator call; on a nil tracer it just calls fn.
func (t *tracer) operator(kind spanKind, fn func() error) error {
	if t == nil {
		return fn()
	}
	return t.timed(kind, 0, fn)
}

// root issues one client request as a root span and keeps the engine
// and array counter movement across it.
func (t *tracer) root(cl *client, ctx context.Context, acc loadgen.Access, degraded bool) opRec {
	before := t.eng.Stats()
	rec := cl.do(ctx, acc)
	after := t.eng.Stats()
	kind := rootGet
	if acc.Write {
		kind = rootPut
	}
	i := t.add(span{kind: kind, start: rec.start, end: rec.end, bytes: int64(rec.bytes)})
	t.mu.Lock()
	t.deltas[i] = statDelta{
		engReads:  after.Reads - before.Reads,
		engWrites: after.Writes - before.Writes,
		arrReads:  after.DeviceReads - before.DeviceReads,
		arrWrites: after.DeviceWrites - before.DeviceWrites,
		degReads:  after.DegradedReads - before.DegradedReads,
		degraded:  degraded,
	}
	t.mu.Unlock()
	return rec
}

// hooks returns the wrappers that feed the tracer.
func (t *tracer) hooks() hooks {
	return hooks{
		device: func(_ int, dev store.Device) store.Device { return tracedDevice{Device: dev, t: t} },
		journal: func(b store.Blob) store.Blob {
			return tracedBlob{Blob: b, t: t}
		},
		transport: func(cluster.NodeSpec) http.RoundTripper {
			return tracedTransport{inner: http.DefaultTransport, t: t}
		},
	}
}

// tracedDevice times every strip read and write.
type tracedDevice struct {
	store.Device
	t *tracer
}

func (d tracedDevice) ReadStrip(idx int64, p []byte) error {
	return d.t.timed(devRead, int64(len(p)), func() error { return d.Device.ReadStrip(idx, p) })
}

func (d tracedDevice) WriteStrip(idx int64, p []byte) error {
	return d.t.timed(devWrite, int64(len(p)), func() error { return d.Device.WriteStrip(idx, p) })
}

// Inner lets the store walk through the wrapper to its checksum layer.
func (d tracedDevice) Inner() store.Device { return d.Device }

// tracedBlob times the metadata journal's writes and syncs.
type tracedBlob struct {
	store.Blob
	t *tracer
}

func (b tracedBlob) WriteAt(p []byte, off int64) (n int, err error) {
	b.t.timed(jWrite, int64(len(p)), func() error {
		n, err = b.Blob.WriteAt(p, off)
		return err
	})
	return n, err
}

func (b tracedBlob) Sync() error { return b.t.timed(jSync, 0, b.Blob.Sync) }

// tracedTransport times each netdev round trip from request to the
// close of the response body, counting the bytes both ways.
type tracedTransport struct {
	inner http.RoundTripper
	t     *tracer
}

func (tt tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	clk := tt.t.clk.Load()
	if clk == nil {
		return tt.inner.RoundTrip(req)
	}
	s := clk.now()
	sent := max(req.ContentLength, 0)
	resp, err := tt.inner.RoundTrip(req)
	if err != nil {
		tt.t.add(span{kind: netRT, start: s, end: clk.now(), bytes: sent})
		return nil, err
	}
	resp.Body = &countedBody{ReadCloser: resp.Body, t: tt.t, clk: clk, start: s, n: sent}
	return resp, nil
}

type countedBody struct {
	io.ReadCloser
	t     *tracer
	clk   *clock
	start int64
	n     int64
	once  sync.Once
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.t.add(span{kind: netRT, start: b.start, end: b.clk.now(), bytes: b.n}) })
	return err
}

// attribution maps each span to the root that caused it.
type attribution struct {
	spans  []span
	parent []int // index of the causing root or operator span; -1: none
}

// attribute assigns every child span to the client root whose interval
// contains it or, failing that, to the operator span that does. With one
// client the roots never overlap one another.
func attribute(spans []span) attribution {
	var roots, ops []int
	for i, s := range spans {
		switch s.kind {
		case rootGet, rootPut:
			roots = append(roots, i)
		case opFail, opRebuild:
			ops = append(ops, i)
		}
	}
	byStart := func(idx []int) {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].start < spans[idx[b]].start })
	}
	byStart(roots)
	byStart(ops)
	// Neither roots nor operator calls overlap their own kind, so only
	// the latest one started before s can hold it.
	within := func(idx []int, s span) int {
		j := sort.Search(len(idx), func(k int) bool { return spans[idx[k]].start > s.start }) - 1
		if j >= 0 && spans[idx[j]].end >= s.end {
			return idx[j]
		}
		return -1
	}
	a := attribution{spans: spans, parent: make([]int, len(spans))}
	for i, s := range spans {
		a.parent[i] = -1
		if s.kind <= opRebuild {
			continue
		}
		if p := within(roots, s); p >= 0 {
			a.parent[i] = p
		} else if p := within(ops, s); p >= 0 {
			a.parent[i] = p
		}
	}
	return a
}

// writeSpans writes the spans as gzip'd tab-separated lines: id, name,
// start ns, end ns, parent id (-1: none), bytes.
func writeSpans(path string, a attribution) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id\tname\tstart_ns\tend_ns\tparent\tbytes")
	for i, s := range a.spans {
		fmt.Fprintf(bw, "%d\t%s\t%d\t%d\t%d\t%d\n", i, spanNames[s.kind], s.start, s.end, a.parent[i], s.bytes)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
