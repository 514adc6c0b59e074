package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuShares decodes a runtime/pprof CPU profile (gzipped protobuf) and
// returns each layer's share of the samples, with the sample count. A
// sample belongs to the innermost frame that is a hyperion/internal
// package, this benchmark ("driver"), or the Go runtime
// collecting or allocating (goruntime.gc, goruntime.malloc); standard
// library frames are skipped. Other runtime leaves — memmove, map
// access, hashing — are charged to the layer that called them, and go
// to goruntime.other only when no layer did (scheduler, timers, idle).
func cpuShares(prof []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				frames = append(frames, p.strings[p.funcNames[fn]])
			}
		}
		counts[frameLayer(frames)] += s.count
		total += s.count
	}
	shares := map[string]float64{}
	for k, v := range counts {
		if total > 0 {
			shares[k] = float64(v) / float64(total)
		}
	}
	return shares, total, nil
}

// frameLayer classifies one stack, innermost frame first.
func frameLayer(frames []string) string {
	sawRuntime := false
	for _, f := range frames {
		switch {
		case isRuntime(f):
			sawRuntime = true
			if l := runtimeLayer(f); l != "" {
				return l
			}
		case strings.HasPrefix(f, "main.") || strings.HasPrefix(f, "hyperion/cmd/hyperbench."):
			return "driver" // the benchmark, as a command or as a test binary
		case strings.HasPrefix(f, "hyperion/internal/"):
			return packageLayer(f)
		}
	}
	if sawRuntime {
		return "goruntime.other"
	}
	return "other"
}

func isRuntime(f string) bool {
	return strings.HasPrefix(f, "runtime.") || strings.HasPrefix(f, "internal/runtime/")
}

// gcFrames and mallocFrames are substrings of runtime function names.
var (
	gcFrames = []string{
		"gcBgMarkWorker", "gcDrain", "gcAssist", "gcMark", "gcStart", "gcWriteBarrier",
		"scanobject", "scanblock", "scanstack", "scanframe", "markroot", "greyobject",
		"findObject", "wbBuf", "bgsweep", "sweep", "bgscavenge", "scavenge",
		"(*gcWork)", "gcFlush", "typePointers",
	}
	mallocFrames = []string{
		"mallocgc", "newobject", "newarray", "makeslice", "growslice", "makemap",
		"(*mcache)", "(*mcentral)", "(*mheap)", "nextFreeFast", "nextFreeIndex",
		"heapSetType", "memclrNoHeapPointers", "rawstring", "rawbyteslice",
		"concatstring", "slicebytetostring", "largeAlloc", "(*fixalloc)", "(*pageAlloc)",
	}
)

// runtimeLayer returns goruntime.gc or goruntime.malloc for a
// collector or allocator frame, else "".
func runtimeLayer(f string) string {
	for _, sub := range gcFrames {
		if strings.Contains(f, sub) {
			return "goruntime.gc"
		}
	}
	for _, sub := range mallocFrames {
		if strings.Contains(f, sub) {
			return "goruntime.malloc"
		}
	}
	return ""
}

// packageLayer maps a hyperion/internal function name to its layer.
func packageLayer(f string) string {
	if i := strings.IndexByte(f, '['); i >= 0 {
		f = f[:i] // drop type arguments, which may hold other paths
	}
	rel := strings.TrimPrefix(f, "hyperion/internal/")
	if i := strings.LastIndexByte(rel, '/'); i >= 0 {
		if j := strings.IndexByte(rel[i:], '.'); j >= 0 {
			rel = rel[:i+j]
		}
	} else if j := strings.IndexByte(rel, '.'); j >= 0 {
		rel = rel[:j]
	}
	parts := strings.Split(rel, "/")
	switch {
	case parts[0] == "ebpf" && len(parts) > 1 && parts[1] == "gofront":
		return "gofront"
	case isLayer(parts[0]):
		return parts[0]
	}
	return "other"
}

func isLayer(name string) bool {
	for _, l := range layerNames {
		if l == name {
			return true
		}
	}
	return false
}

// profile holds the parts of a pprof Profile message cpuShares needs.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]int64    // function id -> string table index
	strings   []string
}

type sample struct {
	locs  []uint64
	count int64
}

// decodeProfile reads the fields of profile.proto that cpuShares
// uses: Profile.sample (2), .location (4), .function (5) and
// .string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := forFields(b, func(field int, wire int, v uint64, msg []byte) error {
		switch field {
		case 2:
			var s sample
			err := forFields(msg, func(f, w int, v uint64, m []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, m)
				case 2:
					if vals := appendVarints(nil, w, v, m); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := forFields(msg, func(f, w int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return forFields(m, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := forFields(msg, func(f, w int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, n := range p.funcNames {
		if n < 0 || n >= int64(len(p.strings)) {
			return nil, errors.New("function name outside string table")
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field's values, packed
// (wire type 2) or not.
func appendVarints(dst []uint64, wire int, v uint64, msg []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		msg = msg[n:]
	}
	return dst
}

// forFields walks one protobuf message, calling fn with each field's
// number, wire type, and either its integer value or its bytes.
func forFields(b []byte, fn func(field, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}
