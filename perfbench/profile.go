package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"regexp"
	"runtime"
	"runtime/pprof"
	"time"
)

// profileHz is the CPU sampling rate of traced runs. Go's default of
// 100 Hz yields few samples in a one-second computation; rates above
// the kernel's timer tick (commonly 250 Hz) lose samples.
const profileHz = 250

// profiler accumulates CPU-profile samples per layer over several
// profiled sections, and the process CPU time those sections took.
type profiler struct {
	buf   bytes.Buffer
	layer map[string]int64 // layer -> sampled CPU ns
	total int64
	cpu0  time.Duration
	cpu   time.Duration
}

func newProfiler() *profiler {
	return &profiler{layer: make(map[string]int64)}
}

// start begins a profiled section.
func (p *profiler) start() error {
	p.buf.Reset()
	// Raising the rate first makes StartCPUProfile keep it; the runtime
	// then prints a harmless warning that the rate is already set.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return err
	}
	p.cpu0 = cpuTime()
	return nil
}

// stop ends the section and charges its samples to layers.
func (p *profiler) stop() error {
	p.cpu += cpuTime() - p.cpu0
	pprof.StopCPUProfile()
	samples, err := parseProfile(&p.buf)
	if err != nil {
		return err
	}
	for _, s := range samples {
		l := classify(s.stack)
		p.layer[l] += s.ns
		p.total += s.ns
	}
	return nil
}

// report adds <layer>.share, the layer's share of the samples, and
// <layer>.ns_per_update, that share of the measured process CPU time
// per update, for every layer.
func (p *profiler) report(m metrics, updates float64) {
	for _, l := range layers {
		share := 0.0
		if p.total > 0 {
			share = float64(p.layer[l]) / float64(p.total)
		}
		m[l+".share"] = share
		m[l+".ns_per_update"] = share * float64(p.cpu.Nanoseconds()) / updates
	}
}

// Layer attribution. A sample goes to the innermost frame of its stack
// that belongs to a named layer; frames of no layer (runtime map,
// malloc and scheduler code, telemetry, the rest of p2p, dht, rng, the
// facade, the benchmark) pass the sample on to their caller. Samples
// taken in the background GC workers go to runtime.gc; samples with
// no layer frame at all go to other.
var layerRules = []struct {
	layer string
	re    *regexp.Regexp
}{
	{"wire.fold", regexp.MustCompile(`^dpr/internal/wire\.(\(\*ranker\)\.|newRanker$)`)},
	{"p2p.coalesce", regexp.MustCompile(`^dpr/internal/p2p\.\(\*RetryQueue\)\.`)},
	{"wire.codec", regexp.MustCompile(`^dpr/internal/wire\.(writeFrame|readFrame|encode[A-Z]\w*|decode[A-Z]\w*|\(\*connWriter\)\.write)$`)},
	{"wire.socket", regexp.MustCompile(`^(net|syscall|internal/poll|internal/runtime/syscall|runtime/internal/syscall)\.`)},
	{"wire.cluster", regexp.MustCompile(`^dpr/internal/wire\.(\(\*Cluster\)\.|probePeer$|collectRanks$|observerDial$)`)},
	{"wire.peer", regexp.MustCompile(`^dpr/internal/wire\.`)},
	{"graph", regexp.MustCompile(`^dpr/internal/(graph|csr)\.`)},
	{"core", regexp.MustCompile(`^dpr/internal/core\.`)},
}

var gcWorker = regexp.MustCompile(`^runtime\.(gcBgMarkWorker|bgsweep|bgscavenge)$`)

// classify names the layer a stack (leaf first) is charged to.
func classify(stack []string) string {
	for _, f := range stack {
		if gcWorker.MatchString(f) {
			return "runtime.gc"
		}
	}
	for _, f := range stack {
		// Closures (func1, func2.1, ...) belong to their enclosing
		// function's layer.
		for _, r := range layerRules {
			if r.re.MatchString(trimClosure(f)) {
				return r.layer
			}
		}
	}
	return "other"
}

var closureSuffix = regexp.MustCompile(`(\.func\d+|\.gowrap\d+)(\.\d+)*$`)

func trimClosure(f string) string { return closureSuffix.ReplaceAllString(f, "") }

// sample is one profile sample: its stack of function names, leaf
// first, and the CPU time it stands for.
type sample struct {
	stack []string
	ns    int64
}

// parseProfile decodes a gzipped pprof protobuf CPU profile far enough
// to read each sample's stack and CPU nanoseconds.
func parseProfile(r io.Reader) ([]sample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		raw       []rawSample
		locFuncs  = map[uint64][]uint64{} // location -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function -> string-table index
		strs      []string
	)
	err = eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			raw = append(raw, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]sample, 0, len(raw))
	for _, s := range raw {
		if len(s.values) < 2 {
			return nil, fmt.Errorf("profile: sample with %d values, want count and cpu ns", len(s.values))
		}
		var stack []string
		for _, l := range s.locs {
			for _, fn := range locFuncs[l] {
				idx := funcNames[fn]
				if idx < 0 || int(idx) >= len(strs) {
					return nil, fmt.Errorf("profile: bad function name index %d", idx)
				}
				stack = append(stack, strs[idx])
			}
		}
		out = append(out, sample{stack: stack, ns: s.values[1]})
	}
	return out, nil
}

// eachField walks the top-level fields of one protobuf message. For
// varint fields v holds the value; for length-delimited fields b holds
// the bytes.
func eachField(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", field)
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return fmt.Errorf("short fixed64 in field %d", field)
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return fmt.Errorf("bad length in field %d", field)
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return fmt.Errorf("short fixed32 in field %d", field)
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, field)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, whether the
// encoder wrote it packed (wire type 2) or one value per field.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
