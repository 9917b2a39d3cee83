package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// profileShares reads a CPU profile written by runtime/pprof and
// returns each bucket's share of the sampled CPU time: a sample goes
// to gc when any frame is a GC worker or assist, to syscall when any
// frame enters the kernel, else to its innermost repro/internal
// package, else to the benchmark, the Go runtime or other.
func profileShares(path string) (map[string]float64, int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	return p.shares()
}

// profile is the subset of profile.proto this needs.
type profile struct {
	strings   []string
	functions map[uint64]int64    // function id → name string index
	locations map[uint64][]uint64 // location id → function ids, innermost first
	samples   []profSample
}

type profSample struct {
	locations []uint64 // leaf first
	value     int64    // the last sample value: CPU nanoseconds
}

func (p *profile) shares() (map[string]float64, int, error) {
	out := make(map[string]float64, len(profileBuckets))
	for _, b := range profileBuckets {
		out[b] = 0
	}
	var total int64
	for _, s := range p.samples {
		var frames []string
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				if i := p.functions[fn]; i >= 0 && int(i) < len(p.strings) {
					frames = append(frames, p.strings[i])
				}
			}
		}
		out[bucketOf(frames)] += float64(s.value)
		total += s.value
	}
	if total == 0 {
		return out, len(p.samples), nil
	}
	for k := range out {
		out[k] /= float64(total)
	}
	return out, len(p.samples), nil
}

// bucketOf classifies one stack, innermost frame first.
func bucketOf(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gcBgMarkWorker") || strings.HasPrefix(f, "runtime.gcAssistAlloc") ||
			strings.HasPrefix(f, "runtime.bgsweep") || strings.HasPrefix(f, "runtime.bgscavenge") ||
			strings.HasPrefix(f, "runtime.gcDrain") || strings.HasPrefix(f, "runtime.markroot") {
			return "gc"
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "syscall.") || strings.HasPrefix(f, "internal/runtime/syscall.") ||
			strings.HasPrefix(f, "runtime/internal/syscall.") || strings.HasPrefix(f, "internal/poll.ignoringEINTRIO") {
			return "syscall"
		}
	}
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "repro/internal/"); ok {
			return packageBucket(rest)
		}
	}
	allRuntime := len(frames) > 0
	for _, f := range frames {
		if strings.HasPrefix(f, "repro/perfbench") || strings.HasPrefix(f, "main.") {
			return "bench"
		}
		if !strings.HasPrefix(f, "runtime.") && !strings.HasPrefix(f, "internal/runtime/") {
			allRuntime = false
		}
	}
	if allRuntime {
		return "runtime"
	}
	return "other"
}

// packageBucket maps "core/sched.(*Gate).Acquire" to "core.sched".
func packageBucket(rest string) string {
	// The package path ends at the first '.' after the last '/'.
	slash := strings.LastIndex(rest, "/")
	dot := strings.Index(rest[slash+1:], ".")
	pkg := rest
	if dot >= 0 {
		pkg = rest[:slash+1+dot]
	}
	name := strings.ReplaceAll(pkg, "/", ".")
	for _, b := range profileBuckets {
		if b == name {
			return name
		}
	}
	// A nested package without its own bucket counts to its parent.
	if i := strings.Index(name, "."); i >= 0 {
		for _, b := range profileBuckets {
			if b == name[:i] {
				return b
			}
		}
	}
	return "other"
}

// parseProfile decodes a gzipped profile.proto message.
func parseProfile(raw []byte) (*profile, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	p := &profile{functions: make(map[uint64]int64), locations: make(map[uint64][]uint64)}
	err := eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			var values []int64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					ids, err := varints(wire, v, b)
					s.locations = append(s.locations, ids...)
					return err
				case 2:
					vs, err := varints(wire, v, b)
					for _, x := range vs {
						values = append(values, int64(x))
					}
					return err
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.value = values[len(values)-1]
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, wire int, v uint64, _ []byte) error {
						if num == 1 {
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
			p.locations[id] = fns
		case 5: // function
			var id uint64
			name := int64(-1)
			err := eachField(b, func(num int, wire int, v uint64, _ []byte) error {
				switch num {
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
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated profile")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire 0) or payload (wire 2).
func eachField(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(tag>>3), int(tag&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated integer field, packed (wire 2) or not.
func varints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
