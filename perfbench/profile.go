package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuShares buckets a runtime/pprof CPU profile. A sample belongs to the
// layer of the innermost frame that lies in this module, so runtime work
// (copies, zeroing, allocation) counts toward the layer that asked for
// it; garbage-collector stacks count toward no layer; samples of goroutines
// labelled role=client are the load generator; samples whose stack passes
// through a (*server.Server) method are the HTTP handlers.
type cpuShares struct {
	total, client, handler float64
	layer                  map[string]float64 // package name → samples
}

const modulePrefix = "github.com/oiraid/oiraid/"

var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcMarkTermination", "runtime.gcStart",
}

func (c *cpuShares) share(v float64) float64 {
	if c.total == 0 {
		return 0
	}
	return v / c.total
}

// parseCPUProfile decodes the gzip'd profile.proto written by
// pprof.StartCPUProfile and buckets its samples.
func parseCPUProfile(raw []byte) (*cpuShares, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs   []uint64
		value  int64
		labels [][2]int64 // (key, str) string-table indexes
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]int64{}    // function id → name index
		locs    = map[uint64][]uint64{} // location id → function ids, leaf first
	)
	err = eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var values []int64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, w, v, b)
				case 2:
					for _, x := range appendPacked(nil, w, v, b) {
						values = append(values, int64(x))
					}
				case 3:
					var key, str int64
					err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
						switch f {
						case 1:
							key = int64(v)
						case 2:
							str = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, [2]int64{key, str})
					return err
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.value = values[0]
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line: inlined callees first, the caller last
					return eachField(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcs[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	c := &cpuShares{layer: map[string]float64{}}
	for _, s := range samples {
		v := float64(s.value)
		c.total += v
		for _, l := range s.labels {
			if str(l[0]) == "role" && str(l[1]) == "client" {
				c.client += v
			}
		}
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locs[loc] {
				frames = append(frames, str(funcs[fn]))
			}
		}
		isGC, inHandler, leaf := false, false, ""
		for _, f := range frames {
			for _, g := range gcFrames {
				if f == g {
					isGC = true
				}
			}
			if strings.HasPrefix(f, modulePrefix+"internal/server.(*Server)") {
				inHandler = true
			}
			if leaf == "" && strings.HasPrefix(f, modulePrefix) {
				leaf = packageOf(f)
			}
		}
		if inHandler {
			c.handler += v
		}
		if !isGC && leaf != "" {
			c.layer[leaf] += v
		}
	}
	return c, nil
}

// packageOf returns the last element of a function's package path:
// ".../internal/store/netdev.(*NodeClient).do" → "netdev".
func packageOf(fn string) string {
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		fn = fn[i+1:]
	}
	if i := strings.IndexByte(fn, '.'); i >= 0 {
		fn = fn[:i]
	}
	return fn
}

// appendPacked decodes a repeated varint field in packed or unpacked
// form.
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

var errProto = errors.New("malformed profile")

// eachField walks the fields of one protobuf message: varints arrive in
// v, length-delimited fields in b.
func eachField(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errProto, wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
