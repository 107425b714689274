package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// A small reader for the gzip-compressed protobuf that runtime/pprof writes:
// just enough of profile.proto to walk each sample's stack by function name.
// It exists so the layer shares need neither `go tool pprof` at run time nor
// a go.mod dependency.

// stackSample is one profile sample: function names from the leaf outward,
// and the sample's value (CPU nanoseconds for a CPU profile).
type stackSample struct {
	stack []string
	value int64
}

// protoField is one decoded field of a protobuf message.
type protoField struct {
	num   int
	wire  int
	varnt uint64
	data  []byte
}

var errTruncated = errors.New("profile: truncated protobuf")

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// nextField decodes the field at the head of b.
func nextField(b []byte) (protoField, []byte, error) {
	key, b, err := readVarint(b)
	if err != nil {
		return protoField{}, nil, err
	}
	f := protoField{num: int(key >> 3), wire: int(key & 7)}
	switch f.wire {
	case 0:
		f.varnt, b, err = readVarint(b)
	case 1:
		if len(b) < 8 {
			return f, nil, errTruncated
		}
		b = b[8:]
	case 2:
		var n uint64
		n, b, err = readVarint(b)
		if err == nil {
			if uint64(len(b)) < n {
				return f, nil, errTruncated
			}
			f.data, b = b[:n], b[n:]
		}
	case 5:
		if len(b) < 4 {
			return f, nil, errTruncated
		}
		b = b[4:]
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", f.wire)
	}
	return f, b, err
}

// repeatedVarints appends a repeated integer field's values, packed or not.
func repeatedVarints(dst []uint64, f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.varnt), nil
	}
	b := f.data
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// parseProfile decodes a pprof profile into stack samples.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples  []rawSample
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
		funcName = map[uint64]uint64{}   // function id → string index
		strs     []string
	)
	for b := raw; len(b) > 0; {
		var f protoField
		if f, b, err = nextField(b); err != nil {
			return nil, err
		}
		switch f.num {
		case 2: // Sample
			var s rawSample
			for m := f.data; len(m) > 0; {
				var sf protoField
				if sf, m, err = nextField(m); err != nil {
					return nil, err
				}
				switch sf.num {
				case 1:
					s.locs, err = repeatedVarints(s.locs, sf)
				case 2:
					s.values, err = repeatedVarints(s.values, sf)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var funcs []uint64
			for m := f.data; len(m) > 0; {
				var lf protoField
				if lf, m, err = nextField(m); err != nil {
					return nil, err
				}
				switch lf.num {
				case 1:
					id = lf.varnt
				case 4: // Line
					for l := lf.data; len(l) > 0; {
						var ln protoField
						if ln, l, err = nextField(l); err != nil {
							return nil, err
						}
						if ln.num == 1 {
							funcs = append(funcs, ln.varnt)
						}
					}
				}
			}
			locFuncs[id] = funcs
		case 5: // Function
			var id, name uint64
			for m := f.data; len(m) > 0; {
				var ff protoField
				if ff, m, err = nextField(m); err != nil {
					return nil, err
				}
				switch ff.num {
				case 1:
					id = ff.varnt
				case 2:
					name = ff.varnt
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(f.data))
		}
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ss := stackSample{value: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					ss.stack = append(ss.stack, strs[idx])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// layerPrefix is the import-path prefix of the program's layers.
const layerPrefix = "mptcpgo/internal/"

// funcPackage returns the package part of a symbol such as
// "mptcpgo/internal/buffer.(*ByteQueue).Append".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf names the bucket a stack is charged to: the innermost
// mptcpgo/internal/<layer> frame if there is one (so a memmove under
// ByteQueue.Append belongs to buffer), else the facade, the harness, or the
// runtime's own goroutines (background GC, scheduler). "" means unknown.
func layerOf(stack []string) string {
	bucket := ""
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if strings.HasPrefix(pkg, layerPrefix) {
			return strings.TrimPrefix(pkg, layerPrefix)
		}
		if bucket == "" && pkg == "mptcpgo" {
			bucket = "facade"
		}
		if bucket == "" && pkg == "main" {
			bucket = "harness"
		}
	}
	if bucket == "" && len(stack) > 0 {
		// No program frame at all: a runtime goroutine (background GC, the
		// scheduler) or a standard-library helper.
		bucket = "runtime"
	}
	return bucket
}

// gcFrames mark a stack as garbage-collection work wherever they appear.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.gcDrain":        true,
	"runtime.gcDrainN":       true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.gcStart":        true,
	"runtime.gcMarkDone":     true,
	"runtime.wbBufFlush":     true,
	"runtime.gcWriteBarrier": true,
}

// runtimeClass sorts a stack by what the runtime was doing at its leaf:
// "copy" (memmove), "gc", "alloc" (mallocgc and what it calls) or "". These
// overlap the layer buckets by design: they say how a layer spent its time.
func runtimeClass(stack []string) string {
	if len(stack) == 0 {
		return ""
	}
	if stack[0] == "runtime.memmove" {
		return "copy"
	}
	alloc := false
	for _, fn := range stack {
		if !strings.HasPrefix(fn, "runtime.") {
			break
		}
		if gcFrames[fn] {
			return "gc"
		}
		if fn == "runtime.mallocgc" {
			alloc = true
		}
	}
	if alloc {
		return "alloc"
	}
	return ""
}

// foldedProfile is a CPU profile reduced to shares of its total.
type foldedProfile struct {
	TotalNs int64 `json:"total_ns"`
	// Layer maps a bucket (a layer, "facade", "harness", "runtime") to its
	// share of TotalNs; Unknown is the share no bucket took.
	Layer   map[string]float64 `json:"layer"`
	Unknown float64            `json:"unknown"`
	// Runtime maps "alloc", "gc" and "copy" to leaf-frame shares.
	Runtime map[string]float64 `json:"runtime"`
}

func foldProfile(samples []stackSample) foldedProfile {
	fp := foldedProfile{Layer: map[string]float64{}, Runtime: map[string]float64{}}
	for _, s := range samples {
		fp.TotalNs += s.value
	}
	if fp.TotalNs == 0 {
		return fp
	}
	total := float64(fp.TotalNs)
	for _, s := range samples {
		share := float64(s.value) / total
		if l := layerOf(s.stack); l != "" {
			fp.Layer[l] += share
		} else {
			fp.Unknown += share
		}
		if c := runtimeClass(s.stack); c != "" {
			fp.Runtime[c] += share
		}
	}
	return fp
}

// writeFolded writes the profile as one "root;...;leaf value" line per
// distinct stack (the flame-graph folded format), heaviest first.
func writeFolded(w io.Writer, samples []stackSample) error {
	folded := map[string]int64{}
	for _, s := range samples {
		frames := make([]string, len(s.stack))
		for i, fn := range s.stack {
			frames[len(s.stack)-1-i] = fn
		}
		folded[strings.Join(frames, ";")] += s.value
	}
	keys := make([]string, 0, len(folded))
	for k := range folded {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if folded[keys[i]] != folded[keys[j]] {
			return folded[keys[i]] > folded[keys[j]]
		}
		return keys[i] < keys[j]
	})
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s %d\n", k, folded[k]); err != nil {
			return err
		}
	}
	return nil
}
