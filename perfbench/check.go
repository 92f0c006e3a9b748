package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"

	"github.com/oiraid/oiraid"
	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/object"
)

// preloadCRC returns the content hash of each item's version 0.
func preloadCRC(pay *payloads, size int) func(item int64) uint32 {
	p := make([]byte, size)
	return func(item int64) uint32 {
		pay.fill(p, item, 0)
		return crc32.Checksum(p, castagnoli)
	}
}

// remountCheck mounts a durable stack's images and metadata files again
// with MountArray after its clean shutdown, as an oiraidd restart does,
// reopens the object plane, and re-reads every object. It returns how
// many objects did not read back as their last acknowledged version.
func remountCheck(w *workload, s *stack, orc *oracle) (lost int, err error) {
	devs := make([]oiraid.Device, daemonDisks)
	copy(devs, s.devs)
	sbs, j0, j1, err := s.openMeta()
	if err != nil {
		return 0, err
	}
	mnt, err := oiraid.MountArray(s.g, devs, sbs, j0, j1)
	if err != nil {
		return 0, err
	}
	if !mnt.WasClean || len(mnt.Failed) > 0 {
		return 0, fmt.Errorf("mount after clean shutdown: clean=%v failed=%v", mnt.WasClean, mnt.Failed)
	}
	eng, err := engine.New(mnt.Array, localOptions())
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	objs, err := object.New(eng, object.Options{})
	if err != nil {
		return 0, fmt.Errorf("object plane: %w", err)
	}
	var buf bytes.Buffer
	for i := 0; i < w.keys; i++ {
		buf.Reset()
		_, gerr := objs.GetObject(context.Background(), bucket, objectKey(int64(i)), &buf)
		crc := crc32.Checksum(buf.Bytes(), castagnoli)
		ok := false
		for _, v := range orc.current(int64(i)) {
			if gerr == nil && v.crc == crc {
				ok = true
			}
		}
		if !ok {
			lost++
		}
	}
	return lost, nil
}
