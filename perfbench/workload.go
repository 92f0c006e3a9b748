package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"time"

	"github.com/oiraid/oiraid/internal/server"
	loadgen "github.com/oiraid/oiraid/internal/workload"
)

type stackKind int

const (
	kindDurable stackKind = iota // superblocks + journal (oiraidd -dir), on tmpfs-like memory
	kindMemory                   // memory-backed array (oiraidd without -dir)
	kindCluster                  // coordinator over three netdev memory nodes (oiraidd -nodes)
)

// A workload is a closed loop: every client waits for its reply before
// sending the next request. An operator runs a fixed schedule of
// periods: each fails one disk or a triple, alternating, holds them
// failed, then rebuilds with POST /v1/rebuild?wait=1. The schedule runs
// inside the measured window or, when recovery > 0, as that many periods
// after a healthy window while the clients keep going.
type workload struct {
	name       string
	kind       stackKind
	stripBytes int
	cycles     int64
	clients    int

	objectBytes int // > 0: object traffic over keys; otherwise strip traffic
	keys        int

	zipf      float64 // > 1: zipf skew; 0: uniform
	writeFrac float64

	period   time.Duration
	hold     time.Duration
	recovery int
}

var workloads = map[string]*workload{
	"object-mixed": {
		name: "object-mixed", kind: kindDurable, stripBytes: 4 << 10, cycles: 64, clients: 2,
		objectBytes: 64 << 10, keys: 256, zipf: 1.1, writeFrac: 0.2,
		period: 500 * time.Millisecond, hold: 150 * time.Millisecond, recovery: 2 * balancedPeriods,
	},
	"degraded-rebuild": {
		name: "degraded-rebuild", kind: kindMemory, stripBytes: 64 << 10, cycles: 16, clients: 2,
		zipf: 1.1, writeFrac: 0.1,
		period: time.Second, hold: 200 * time.Millisecond,
	},
	"cluster-rw": {
		name: "cluster-rw", kind: kindCluster, stripBytes: 4 << 10, cycles: 8, clients: 2,
		writeFrac: 0.5,
		period:    500 * time.Millisecond, hold: 150 * time.Millisecond, recovery: 2 * balancedPeriods,
	},
}

// smoke returns a copy of the workload shrunk for a functional check:
// a small array, few keys, and a short failure schedule.
func (w *workload) smoke() *workload {
	s := *w
	s.cycles = 4
	s.keys = 8
	s.period, s.hold = 200*time.Millisecond, 50*time.Millisecond
	if s.recovery > 0 {
		s.recovery = 2
	}
	return &s
}

const bucket = "bench"

func objectKey(i int64) string { return fmt.Sprintf("obj-%04d", i) }

// items is the size of the workload's key space.
func (w *workload) items(s *stack) int64 {
	if w.objectBytes > 0 {
		return int64(w.keys)
	}
	return s.eng.Strips()
}

// itemBytes is the size of one request body.
func (w *workload) itemBytes() int {
	if w.objectBytes > 0 {
		return w.objectBytes
	}
	return w.stripBytes
}

func (w *workload) generator(items int64, seed int64) (loadgen.Generator, error) {
	if w.zipf > 1 {
		return loadgen.NewZipf(items, w.zipf, w.writeFrac, seed)
	}
	return loadgen.NewUniform(items, w.writeFrac, seed)
}

// preload writes version 0 of every item in-process, with as many
// writers as the workload has clients.
func preload(w *workload, s *stack, gen *payloads) error {
	ctx := context.Background()
	n := w.items(s)
	if w.objectBytes > 0 {
		if err := s.objs.CreateBucket(ctx, bucket); err != nil {
			return err
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, w.clients)
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := make([]byte, w.itemBytes())
			for i := int64(c); i < n; i += int64(w.clients) {
				gen.fill(p, i, 0)
				var err error
				if w.objectBytes > 0 {
					_, err = s.objs.PutObject(ctx, bucket, objectKey(i), bytes.NewReader(p), int64(len(p)), nil)
				} else {
					err = s.eng.WriteStripCtx(ctx, i, p)
				}
				if err != nil {
					errs[c] = fmt.Errorf("preload item %d: %w", i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// opRec is one foreground request.
type opRec struct {
	start, end int64 // ns on the run clock
	write      bool
	degraded   bool // issued while a disk was failed or rebuilding
	inWindow   bool // issued inside the measured window
	ok         bool
	bytes      int
}

// client is one closed-loop load generator.
type client struct {
	w    *workload
	c    *server.Client
	gen  loadgen.Generator
	pay  *payloads
	orc  *oracle
	clk  *clock
	buf  []byte
	rbuf bytes.Buffer
	ops  []opRec
	errs []error
}

// do issues one request and checks its response against the oracle.
func (cl *client) do(ctx context.Context, acc loadgen.Access) opRec {
	rec := opRec{write: acc.Write, start: cl.clk.now(), bytes: cl.w.itemBytes()}
	var err error
	if acc.Write {
		ver := cl.orc.beginWrite(acc.Index, rec.start)
		cl.pay.fill(cl.buf, acc.Index, ver)
		cl.orc.setCRC(acc.Index, ver, crc32.Checksum(cl.buf, castagnoli))
		if cl.w.objectBytes > 0 {
			_, err = cl.c.PutObjectCtx(ctx, bucket, objectKey(acc.Index), bytes.NewReader(cl.buf), int64(len(cl.buf)), nil)
		} else {
			err = cl.c.PutStripCtx(ctx, acc.Index, cl.buf)
		}
		rec.end = cl.clk.now()
		cl.orc.endWrite(acc.Index, ver, rec.end, err == nil)
	} else {
		cl.orc.beginRead(rec.start)
		var data []byte
		if cl.w.objectBytes > 0 {
			cl.rbuf.Reset()
			_, err = cl.c.GetObjectCtx(ctx, bucket, objectKey(acc.Index), &cl.rbuf)
			data = cl.rbuf.Bytes()
		} else {
			data, err = cl.c.GetStripCtx(ctx, acc.Index)
		}
		rec.end = cl.clk.now()
		item, ver, _ := stamp(data)
		cerr := cl.orc.endRead(acc.Index, rec.start, ver, crc32.Checksum(data, castagnoli))
		switch {
		case err != nil:
		case len(data) != cl.w.itemBytes():
			err = fmt.Errorf("item %d: read %d bytes, want %d", acc.Index, len(data), cl.w.itemBytes())
		case item != acc.Index:
			err = fmt.Errorf("item %d: read back the stamp of item %d", acc.Index, item)
		default:
			err = cerr
		}
	}
	rec.ok = err == nil
	if err != nil && len(cl.errs) < 10 {
		cl.errs = append(cl.errs, err)
	}
	return rec
}

// clock is the run's monotonic nanosecond clock; it starts at 1 so that
// 0 can mean "not yet".
type clock struct{ t0 time.Time }

func (c *clock) now() int64 { return int64(time.Since(c.t0)) + 1 }

// percentile returns the nearest-rank q-quantile of sorted xs.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
