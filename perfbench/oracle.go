package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// payloads makes the bytes of every write: a 16-byte stamp (item index,
// version) followed by a slice of a seeded random pool chosen by the
// stamp, so distinct versions differ everywhere without per-write
// random generation.
type payloads struct {
	pool []byte
	size int
}

func newPayloads(seed int64, size int) *payloads {
	pool := make([]byte, 1<<20+size)
	rand.New(rand.NewSource(seed)).Read(pool)
	return &payloads{pool: pool, size: size}
}

// fill writes the payload of (item, ver) into p (len p == size).
func (g *payloads) fill(p []byte, item int64, ver uint64) {
	binary.LittleEndian.PutUint64(p[0:], uint64(item))
	binary.LittleEndian.PutUint64(p[8:], ver)
	off := (uint64(item)*0x9E3779B97F4A7C15 ^ ver*0xBF58476D1CE4E5B9) % (1 << 20)
	copy(p[16:], g.pool[off:off+uint64(g.size-16)])
}

// stamp reads the (item, version) stamp of a payload.
func stamp(p []byte) (item int64, ver uint64, ok bool) {
	if len(p) < 16 {
		return 0, 0, false
	}
	return int64(binary.LittleEndian.Uint64(p[0:])), binary.LittleEndian.Uint64(p[8:]), true
}

// oracle tracks, per item, the versions a read may legally return: the
// last acknowledged write, any write in flight, and any write superseded
// only after the read started. Version 0 is the preload, acknowledged
// before the clock starts.
type oracle struct {
	mu    sync.Mutex
	items []itemState
	// reads holds the start times of reads in flight; a superseded version
	// is forgotten once every read that could still return it is done.
	reads map[int64]int
}

type itemState struct {
	next   uint64 // next version to issue
	writes []writeRec
}

type writeRec struct {
	ver        uint64
	crc        uint32
	issue, ack int64 // ns on the run clock; ack 0 while in flight
	superseded int64 // when a later write was acknowledged; 0 while current
}

func newOracle(items int, preloadCRC func(item int64) uint32) *oracle {
	o := &oracle{items: make([]itemState, items), reads: map[int64]int{}}
	for i := range o.items {
		o.items[i] = itemState{next: 1, writes: []writeRec{{ver: 0, crc: preloadCRC(int64(i)), issue: -1, ack: -1}}}
	}
	return o
}

// beginWrite assigns the next version of item at time now.
func (o *oracle) beginWrite(item int64, now int64) uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	st := &o.items[item]
	ver := st.next
	st.next++
	st.writes = append(st.writes, writeRec{ver: ver, issue: now})
	return ver
}

// setCRC records the content hash of a version about to be sent.
func (o *oracle) setCRC(item int64, ver uint64, crc uint32) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if w := o.items[item].find(ver); w != nil {
		w.crc = crc
	}
}

// endWrite records the outcome of a write. An acknowledged write
// supersedes every write acknowledged before it was issued; a failed
// write stays a legal read result, since it may have landed.
func (o *oracle) endWrite(item int64, ver uint64, now int64, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	st := &o.items[item]
	w := st.find(ver)
	if !ok {
		w.ack = now
		return
	}
	w.ack = now
	for i := range st.writes {
		x := &st.writes[i]
		if x.ver != ver && x.ack != 0 && x.ack < w.issue && x.superseded == 0 {
			x.superseded = now
		}
	}
	o.pruneLocked(st)
}

func (o *oracle) beginRead(now int64) {
	o.mu.Lock()
	o.reads[now]++
	o.mu.Unlock()
}

// endRead checks what a read of item started at start returned and
// reports an error when the version was not legal or the bytes differ
// from what was written.
func (o *oracle) endRead(item int64, start int64, ver uint64, crc uint32) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.reads[start]--; o.reads[start] == 0 {
		delete(o.reads, start)
	}
	st := &o.items[item]
	w := st.find(ver)
	switch {
	case w == nil:
		return fmt.Errorf("item %d: version %d is not a live version", item, ver)
	case w.superseded != 0 && w.superseded < start:
		return fmt.Errorf("item %d: version %d was superseded before the read started", item, ver)
	case w.crc != crc:
		return fmt.Errorf("item %d version %d: content hash %08x, wrote %08x", item, ver, crc, w.crc)
	}
	return nil
}

// current lists the versions a read issued now, with nothing in flight,
// may return.
func (o *oracle) current(item int64) []writeRec {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []writeRec
	for _, w := range o.items[item].writes {
		if w.superseded == 0 {
			out = append(out, w)
		}
	}
	return out
}

func (st *itemState) find(ver uint64) *writeRec {
	for i := range st.writes {
		if st.writes[i].ver == ver {
			return &st.writes[i]
		}
	}
	return nil
}

// pruneLocked drops versions superseded before the oldest read in flight
// started: no read can legally return them any more.
func (o *oracle) pruneLocked(st *itemState) {
	oldest := int64(-1)
	for s := range o.reads {
		if oldest < 0 || s < oldest {
			oldest = s
		}
	}
	kept := st.writes[:0]
	for _, w := range st.writes {
		if w.superseded != 0 && (oldest < 0 || w.superseded < oldest) {
			continue
		}
		kept = append(kept, w)
	}
	st.writes = kept
}
