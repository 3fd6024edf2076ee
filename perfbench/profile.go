package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profileGroups are the layers CPU samples are charged to, each
// reported as <group>.cpu_share. Samples landing nowhere in the
// repository (the benchmark itself, idle runtime) count toward the
// total only.
var profileGroups = []string{
	"board", "sim", "fabric", "core", "workload", "sweep", "serve",
	"runtime.gc", "runtime.sched",
}

// packageGroup maps a repository package to its layer.
var packageGroup = map[string]string{
	"system": "board", "mem": "board",
	"sim": "sim",
	"noc": "fabric", "dma": "fabric", "ecore": "fabric", "host": "fabric", "sdk": "fabric",
	"core": "core", "isa": "core",
	"workload": "workload", "power": "workload",
	"sweep": "sweep", "tabular": "sweep", "names": "sweep",
	"serve": "serve",
}

// gcFrames mark a sample as garbage-collector work wherever they
// appear on the stack: the background mark and sweep workers and
// mutator assists.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true,
	"runtime.gcAssistAlloc1": true, "runtime.bgsweep": true,
	"runtime.bgscavenge": true, "runtime.gcStart": true,
	"runtime.gcMarkDone": true, "runtime.gcMarkTermination": true,
}

// schedFrames mark a sample as goroutine-scheduler work when they sit
// between the leaf and the innermost repository frame: channel
// operations, parking and waking, and the futex calls behind them.
var schedFrames = map[string]bool{
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.park_m": true,
	"runtime.gopark": true, "runtime.goready": true, "runtime.ready": true,
	"runtime.chansend": true, "runtime.chansend1": true, "runtime.chanrecv": true,
	"runtime.chanrecv1": true, "runtime.chanrecv2": true, "runtime.selectgo": true,
	"runtime.futex": true, "runtime.futexsleep": true, "runtime.futexwakeup": true,
	"runtime.notesleep": true, "runtime.notewakeup": true, "runtime.casgstatus": true,
	"runtime.mcall": true, "runtime.goexit0": true, "runtime.wakep": true,
	"runtime.startm": true, "runtime.stopm": true, "runtime.execute": true,
	"runtime.gogo": true, "runtime.semacquire1": true, "runtime.semrelease1": true,
	"runtime.runqgrab": true, "runtime.send": true, "runtime.recv": true,
	"runtime.mstart": true, "runtime.mstart1": true, "runtime.usleep": true,
	"runtime.osyield": true, "runtime.goschedImpl": true, "runtime.gosched_m": true,
}

// cpuProfile is a running runtime/pprof CPU profile kept in memory.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns each group's share of the samples.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var total int64
	byGroup := map[string]int64{}
	for _, s := range stacks {
		total += s.count
		byGroup[classify(s.frames)] += s.count
	}
	shares := make(map[string]float64, len(profileGroups))
	for _, g := range profileGroups {
		if total > 0 {
			shares[g] = float64(byGroup[g]) / float64(total)
		}
	}
	fmt.Printf("profile: %d samples;", total)
	for _, g := range append(profileGroups, "other") {
		fmt.Printf(" %s=%d", g, byGroup[g])
	}
	fmt.Println()
	return shares, nil
}

// classify charges one stack (leaf first) to a group: GC work anywhere
// on the stack to runtime.gc; scheduler frames between the leaf and the
// innermost repository frame to runtime.sched; otherwise the innermost
// repository package's layer.
func classify(frames []string) string {
	for _, f := range frames {
		if gcFrames[f] {
			return "runtime.gc"
		}
	}
	for _, f := range frames {
		if pkg, ok := repoPackage(f); ok {
			if g, ok := packageGroup[pkg]; ok {
				return g
			}
			return "other"
		}
		if schedFrames[f] {
			return "runtime.sched"
		}
	}
	return "other"
}

// repoPackage reports the last path element of the repository package
// a function belongs to ("sim" for "epiphany/internal/sim.(*Shard).run").
func repoPackage(fn string) (string, bool) {
	const prefix = "epiphany/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return "", false
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

// stack is one profile sample: its function names, leaf first
// (inlined frames expanded), and its sample count.
type stack struct {
	frames []string
	count  int64
}

// decodeProfile reads the gzipped profile.proto runtime/pprof writes,
// keeping only what attribution needs: samples, locations, functions
// and the string table.
func decodeProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = forFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := forFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, w, v, b)
				case 2:
					for _, x := range appendPacked(nil, w, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := forFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return forFields(b, func(f, w int, v uint64, _ []byte) error {
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
			err := forFields(b, func(f, w int, v uint64, _ []byte) error {
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
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stack{count: s.values[0]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx >= 0 && int(idx) < len(strs) {
					st.frames = append(st.frames, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// forFields walks a protobuf message, calling fn with each field's
// number, wire type, and varint value or length-delimited bytes.
func forFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short protobuf fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad protobuf length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short protobuf fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that may be packed
// (wire type 2) or not (one varint per occurrence).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
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
