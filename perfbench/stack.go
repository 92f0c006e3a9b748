package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/oiraid/oiraid"
	"github.com/oiraid/oiraid/internal/cluster"
	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/object"
	"github.com/oiraid/oiraid/internal/server"
	"github.com/oiraid/oiraid/internal/store"
	"github.com/oiraid/oiraid/internal/store/netdev"
)

// The daemon settings below are oiraidd's flag defaults: -retry 4,
// -evict-after 3, -rebuild-batch 1, -timeout 30s, -net-timeout 5s,
// -grace 15s, no QoS, no hedging, -degraded-policy refuse.
const (
	daemonDisks      = 9
	daemonRetries    = 4
	daemonEvictAfter = 3
	daemonBatch      = 1
	daemonTimeout    = 30 * time.Second
	netTimeout       = 5 * time.Second
	nodeGrace        = 15 * time.Second
)

// engineOptions mirrors oiraidd's engineOpts for the default flag set.
func engineOptions() engine.Options {
	return engine.Options{Health: &engine.HealthPolicy{EvictAfter: daemonEvictAfter, RebuildBatch: daemonBatch}}
}

// stack is one assembled daemon serving on a loopback listener.
type stack struct {
	g    *oiraid.Geometry
	srv  *server.Server
	eng  *engine.Engine
	objs *object.Store
	url  string

	hs       *http.Server
	serveErr chan error

	stripB int
	cycles int64

	// Durable workloads: the memory images and the metadata files the
	// remount check reopens. devs holds each disk's current device; a
	// rebuild swaps in its replacement. meta holds the superblock files
	// and then the two journal regions; on a cluster workload, just the
	// coordinator's two journal files.
	devMu sync.Mutex
	devs  []store.Device
	meta  []*os.File

	// Cluster workloads.
	clus  *cluster.Cluster
	nodes []*memNode
}

// memNode is one in-process netdev memory node on its own listener.
type memNode struct {
	node *netdev.Node
	hs   *http.Server
	url  string
}

// hooks are the traced run's wrappers; nil fields leave the stack exactly
// as oiraidd builds it.
type hooks struct {
	device    func(disk int, dev store.Device) store.Device
	journal   func(b store.Blob) store.Blob
	transport func(cluster.NodeSpec) http.RoundTripper
}

// buildStack assembles the workload's daemon and starts serving it. A
// cluster coordinator keeps its files in a new directory under runDir.
// The files outlive the stack; the run deletes runDir when it ends, so
// that no file system cleanup of an earlier stack falls into a measured
// window.
func buildStack(w *workload, h hooks, runDir string) (*stack, error) {
	g, err := oiraid.NewGeometry(daemonDisks)
	if err != nil {
		return nil, err
	}
	s := &stack{g: g, stripB: w.stripBytes, cycles: w.cycles}
	switch w.kind {
	case kindDurable:
		err = s.buildDurable(h)
	case kindMemory:
		err = s.buildMemory(h)
	case kindCluster:
		err = s.buildCluster(h, runDir)
	}
	if err != nil {
		s.closeNodes()
		s.closeMeta()
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Shutdown(context.Background())
		s.closeNodes()
		s.closeMeta()
		return nil, err
	}
	s.url = "http://" + l.Addr().String()
	// server.Serve stores its http.Server where a concurrent Shutdown
	// reads it unsynchronized, a race the race detector reports when a
	// stack is torn down right after set-up. Serving the same handler
	// with the http.Server settings Serve uses avoids it.
	s.hs = &http.Server{
		Handler:           s.srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       daemonTimeout + 10*time.Second,
		WriteTimeout:      daemonTimeout + 10*time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	s.serveErr = make(chan error, 1)
	go func() { s.serveErr <- s.hs.Serve(l) }()
	return s, nil
}

// localOptions is engineOptions plus the single-process device retry
// layer, as oiraidd's buildServer sets it.
func localOptions() engine.Options {
	opts := engineOptions()
	opts.Retry = &store.RetryPolicy{MaxAttempts: daemonRetries}
	return opts
}

// serve fronts the engine with the object plane and the HTTP API.
func (s *stack) serve(eng *engine.Engine, m server.Membership) error {
	objs, err := object.New(eng, object.Options{})
	if err != nil {
		eng.Close()
		return fmt.Errorf("object plane: %w", err)
	}
	s.eng, s.objs = eng, objs
	s.srv = server.New(eng, server.Options{
		RequestTimeout: daemonTimeout,
		RebuildBatch:   daemonBatch,
		Objects:        objs,
		Membership:     m,
	})
	return nil
}

// metaNames names the durable workloads' superblock files and the two
// journal regions, as oiraidd -dir lays them out.
func metaNames() []string {
	var names []string
	for i := 0; i < daemonDisks; i++ {
		names = append(names, fmt.Sprintf("disk%02d.sb", i))
	}
	return append(names, "meta0.journal", "meta1.journal")
}

// openMeta opens the durable workloads' metadata files as the program's
// file blobs, creating the files on the first call. The files are memory
// files (newMemFile), so the blobs' writes and fsyncs are the shipped
// syscalls at tmpfs cost; the stack holds a descriptor to each until
// closeMeta, so their content outlives the blobs for the remount check.
func (s *stack) openMeta() (sbs []store.Blob, j0, j1 store.Blob, err error) {
	if s.meta == nil {
		for _, name := range metaNames() {
			f, err := newMemFile(name)
			if err != nil {
				s.closeMeta()
				return nil, nil, nil, err
			}
			s.meta = append(s.meta, f)
		}
	}
	blobs := make([]store.Blob, len(s.meta))
	for i, f := range s.meta {
		if blobs[i], err = oiraid.CreateFileBlob(memFilePath(f)); err != nil {
			for _, b := range blobs[:i] {
				b.Close()
			}
			return nil, nil, nil, err
		}
	}
	return blobs[:daemonDisks], blobs[daemonDisks], blobs[daemonDisks+1], nil
}

// closeMeta releases the durable workloads' metadata files.
func (s *stack) closeMeta() {
	for _, f := range s.meta {
		f.Close()
	}
	s.meta = nil
}

// buildDurable formats an array with the durable metadata plane, as
// oiraidd -dir does on an empty directory, with its metadata on tmpfs:
// the superblocks and journal are the program's file blobs over memory
// files, synced at every point the program chooses. The images are
// memory devices.
func (s *stack) buildDurable(h hooks) error {
	strips := s.cycles * int64(s.g.Analyzer().SlotsPerDisk())
	s.devs = make([]store.Device, daemonDisks)
	devs := make([]oiraid.Device, daemonDisks)
	for i := range devs {
		dev, err := store.NewMemDevice(strips, s.stripB)
		if err != nil {
			return fmt.Errorf("disk %d: %w", i, err)
		}
		s.devs[i] = dev
		devs[i] = s.wrapDevice(h, i, dev)
	}
	sbs, j0, j1, err := s.openMeta()
	if err != nil {
		return err
	}
	if h.journal != nil {
		j0, j1 = h.journal(j0), h.journal(j1)
	}
	mnt, err := oiraid.FormatArray(s.g, devs, sbs, j0, j1, oiraid.WithDegradedPolicy(oiraid.DegradedRefuse))
	if err != nil {
		return err
	}
	opts := localOptions()
	opts.Replace = func(d int) (store.Device, error) {
		dev, err := store.NewMemDevice(strips, s.stripB)
		if err != nil {
			return nil, err
		}
		s.devMu.Lock()
		s.devs[d] = dev
		s.devMu.Unlock()
		return s.wrapDevice(h, d, dev), nil
	}
	eng, err := engine.New(mnt.Array, opts)
	if err != nil {
		return err
	}
	return s.serve(eng, nil)
}

func (s *stack) wrapDevice(h hooks, d int, dev store.Device) store.Device {
	if h.device == nil {
		return dev
	}
	return h.device(d, dev)
}

// buildMemory builds a memory-backed array, as oiraidd without -dir does.
func (s *stack) buildMemory(h hooks) error {
	arr, err := oiraid.NewMemArray(s.g, s.cycles, s.stripB)
	if err != nil {
		return err
	}
	opts := localOptions()
	if h.device != nil {
		arr.InstrumentDevices(h.device)
		strips := s.cycles * int64(s.g.Analyzer().SlotsPerDisk())
		// The engine's default replacement is a fresh memory device; the
		// traced run builds the same one and wraps it.
		opts.Replace = func(d int) (store.Device, error) {
			dev, err := store.NewMemDevice(strips, s.stripB)
			if err != nil {
				return nil, err
			}
			return h.device(d, dev), nil
		}
	}
	eng, err := engine.New(arr, opts)
	if err != nil {
		return err
	}
	return s.serve(eng, nil)
}

// buildCluster starts three netdev memory nodes on loopback and mounts a
// classic (non-HA) coordinator over them, as oiraidd -nodes -dir does:
// the coordinator's state directory is a new directory under runDir.
// Its two journal files are links to memory files (newMemFile), so the
// coordinator's journal writes and fsyncs are the shipped syscalls at
// tmpfs cost, as with a state directory on /dev/shm; the manifest, which
// changes only at format and on membership changes, is a plain file.
func (s *stack) buildCluster(h hooks, runDir string) error {
	dir, err := os.MkdirTemp(runDir, "coordinator-")
	if err != nil {
		return err
	}
	for _, name := range []string{"meta0.journal", "meta1.journal"} {
		f, err := newMemFile(name)
		if err != nil {
			return err
		}
		s.meta = append(s.meta, f)
		if err := os.Symlink(memFilePath(f), filepath.Join(dir, name)); err != nil {
			return err
		}
	}
	var specs []cluster.NodeSpec
	for _, id := range []string{"alpha", "beta", "gamma"} {
		n, err := startMemNode(id)
		if err != nil {
			return err
		}
		s.nodes = append(s.nodes, n)
		specs = append(specs, cluster.NodeSpec{ID: id, URL: n.url})
	}
	c, err := cluster.Open(cluster.Options{
		Dir:       dir,
		Nodes:     specs,
		Client:    netdev.Options{Timeout: netTimeout, MaxAttempts: daemonRetries, Grace: nodeGrace},
		Engine:    engineOptions(),
		Format:    &cluster.FormatSpec{Disks: daemonDisks, Cycles: s.cycles, StripBytes: s.stripB, Degraded: store.DegradedRefuse},
		Transport: h.transport,
	})
	if err != nil {
		return err
	}
	s.clus = c
	if h.device != nil {
		c.Eng.Array().InstrumentDevices(h.device)
	}
	return s.serve(c.Eng, c)
}

func startMemNode(id string) (*memNode, error) {
	n := netdev.NewMemNode(id)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.Close()
		return nil, err
	}
	m := &memNode{node: n, hs: &http.Server{Handler: n.Handler(), ReadHeaderTimeout: 10 * time.Second}, url: "http://" + l.Addr().String()}
	go m.hs.Serve(l)
	return m, nil
}

// shutdown drains the daemon gracefully (the engine seals the metadata
// plane) and releases every resource the stack holds but its metadata
// files, which closeMeta releases.
func (s *stack) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	// With no http.Server of its own, the server's Shutdown just drains
	// the engine, which seals the metadata plane.
	if cerr := s.srv.Shutdown(ctx); err == nil {
		err = cerr
	}
	if serr := <-s.serveErr; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if s.clus != nil {
		if cerr := s.clus.Close(); err == nil {
			err = cerr
		}
	}
	s.closeNodes()
	return err
}

// close shuts the stack down and releases its metadata files.
func (s *stack) close() error {
	err := s.shutdown()
	s.closeMeta()
	return err
}

func (s *stack) closeNodes() {
	for _, n := range s.nodes {
		n.hs.Close()
		n.node.Close()
	}
	s.nodes = nil
}
