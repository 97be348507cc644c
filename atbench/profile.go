package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// profileHz is the CPU-profile rate of traced iterations, above the
// default 100 Hz. Linux fires per-thread CPU timers at most once per
// scheduler tick (250 Hz with CONFIG_HZ=250), so a higher rate only
// mislabels each sample's weight. Samples are therefore read as shares
// and scaled by measured CPU time; more samples come from repeating the
// measured region.
const profileHz = 250

// startProfile starts a CPU profile at profileHz. Setting the rate first
// makes pprof keep it (pprof then warns on stderr that the rate is set).
func startProfile(w io.Writer) error {
	runtime.SetCPUProfileRate(profileHz)
	return pprof.StartCPUProfile(w)
}

// layers are the fold's rows, in report order. Every sample lands in
// exactly one.
var layers = []string{"cache", "tlb", "walker", "cpu", "rand", "mem", "vm", "machine", "workloads", "core", "refute", "runtime", "other"}

// internalLayer maps an atscale/internal package to its row.
var internalLayer = map[string]string{
	"cache":     "cache",
	"tlb":       "tlb",
	"walker":    "walker",
	"scheme":    "walker",
	"mmucache":  "walker",
	"cpu":       "cpu",
	"mem":       "mem",
	"vm":        "vm",
	"pagetable": "vm",
	"machine":   "machine",
	"workloads": "workloads",
	"core":      "core",
	"refute":    "refute",
	"topdown":   "refute",
}

// layerOf credits one stack (function names, leaf first) to a row: the
// first frame from the leaf that is math/rand, the runtime, an
// atscale/internal package or the benchmark itself decides. Frames of
// other standard packages (sort, fmt, ...) pass the sample to their
// caller, so sort under graph generation counts as workloads.
func layerOf(stack []string) string {
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "math/rand."), strings.HasPrefix(fn, "math/rand/v2."):
			return "rand"
		case strings.HasPrefix(fn, "runtime."), strings.HasPrefix(fn, "runtime/"):
			return "runtime"
		case strings.HasPrefix(fn, "main."):
			return "other"
		case strings.HasPrefix(fn, "atscale/internal/"):
			pkg := strings.TrimPrefix(fn, "atscale/internal/")
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			if l, ok := internalLayer[pkg]; ok {
				return l
			}
			return "other"
		}
	}
	return "other"
}

// fold is a profile folded by layer: sample counts per row and in
// total. The rows must sum to the total.
type fold struct {
	Samples      map[string]int64 `json:"samples"`
	TotalSamples int64            `json:"total_samples"`
}

func newFold() *fold { return &fold{Samples: map[string]int64{}} }

// add folds one gzipped CPU profile into f.
func (f *fold) add(data []byte) error {
	p, err := parseProfile(data)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		if len(s.values) == 0 {
			return errors.New("profile: sample without a count")
		}
		var stack []string
		for _, id := range s.locs {
			stack = append(stack, p.locFuncs[id]...)
		}
		f.Samples[layerOf(stack)] += s.values[0]
		f.TotalSamples += s.values[0]
	}
	if n := f.rowSum(); n != f.TotalSamples {
		return fmt.Errorf("profile: layer rows hold %d of %d samples", n, f.TotalSamples)
	}
	return nil
}

// rowSum is the number of samples the rows hold.
func (f *fold) rowSum() int64 {
	var n int64
	for _, l := range layers {
		n += f.Samples[l]
	}
	return n
}

// share is row l's fraction of the samples (0 with none).
func (f *fold) share(l string) float64 {
	if f.TotalSamples == 0 {
		return 0
	}
	return float64(f.Samples[l]) / float64(f.TotalSamples)
}

// profile is the part of a pprof profile the fold needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]string // location ID -> function names, leaf first
}

type sample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof
// writes (github.com/google/pprof/proto/profile.proto).
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var strs []string
	funcName := map[uint64]int64{} // function ID -> string index
	locLines := map[uint64][]uint64{}
	p := &profile{locFuncs: map[uint64][]string{}}
	err = walkFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := walkFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, fns := range locLines {
		names := make([]string, len(fns))
		for i, fid := range fns {
			if si := funcName[fid]; si >= 0 && si < int64(len(strs)) {
				names[i] = strs[si]
			}
		}
		p.locFuncs[id] = names
	}
	return p, nil
}

// walkFields calls fn for each field of a protobuf message: v carries a
// varint's value, b a length-delimited field's bytes.
func walkFields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (b) or not (v).
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
