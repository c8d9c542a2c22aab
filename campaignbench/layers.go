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

// CPU layers the sampled profile is charged to, in report order.
var cpuLayers = []string{
	"apps.cpu_s",
	"memsim.hierarchy_cpu_s",
	"memsim.linesim_cpu_s",
	"memsim.geomsim_cpu_s",
	"astream.capture_cpu_s",
	"astream.replay_cpu_s",
	"explore.search_cpu_s",
	"explore.engine_cpu_s",
	"explore.cache_io_cpu_s",
	"pareto.cpu_s",
	"runtime.gc_cpu_s",
	"other.cpu_s",
}

// gcRoots are runtime frames under which every sample is garbage
// collection work, whatever layer allocated.
var gcRoots = []string{
	"runtime.gcBgMarkWorker",
	"runtime.gcAssistAlloc",
	"runtime.bgsweep",
	"runtime.bgscavenge",
}

// Functions of package explore charged to the search and to cache I/O;
// the rest of the package is the engine.
var (
	exploreSearch = names("bbSearcher", "bbHeap", "boundVec", "newBBSearcher", "footprintCurves",
		"step1BranchBound", "assignFromCombo", "comboIndex", "jobBound", "laneBoundFor", "pruneJob",
		"screenSlack", "noteScreenCI", "screenJob", "screenCompose", "finishScreen", "step1Screened")
	exploreCacheIO = names("save", "Save", "SaveWithStreams", "SaveFile", "SaveFileFS", "saveFileOnce",
		"writeFrame", "sectionName", "Load", "LoadFile", "LoadFileFS", "LoadReported", "loadSectioned",
		"readSectionPayload", "stageSection", "safeDecode", "loadLegacy", "mergeEntries", "mergeStreams",
		"mergeLanes", "mergeScheds", "mergeRProfiles", "mergeLProfiles")
	geomHelpers = names("GeomSim", "NewGeomSim", "NewGeomSimSampled", "probeGeomL2", "addContrib",
		"countsFromHists", "scaleCount", "sampleHash", "insertSorted", "newTagStore", "clearTags", "clearHist")
	captureFuncs = names("Recorder", "NewRecorder", "ComposedRecorder", "NewComposedRecorder",
		"putUvarint", "zigzag32", "zigzag64")
)

func names(ns ...string) map[string]bool {
	m := make(map[string]bool, len(ns))
	for _, n := range ns {
		m[n] = true
	}
	return m
}

// splitFunc splits a symbol such as
// "repro/internal/explore.(*bbSearcher).footFloor.func1" into its package
// path, the first element after it with any receiver's pointer and
// parentheses removed, and the element after that:
// "repro/internal/explore", "bbSearcher", "footFloor".
func splitFunc(fn string) (pkg, head, next string) {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain slashes and dots
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	dot := strings.IndexByte(fn[slash:], '.')
	if dot < 0 {
		return fn, "", ""
	}
	pkg, rest := fn[:slash+dot], fn[slash+dot+1:]
	rest = strings.TrimPrefix(rest, "(*")
	rest = strings.TrimPrefix(rest, "(")
	rest = strings.Replace(rest, ").", ".", 1)
	head, rest, _ = strings.Cut(rest, ".")
	next, _, _ = strings.Cut(rest, ".")
	return pkg, head, next
}

// layerOf names the CPU layer a frame belongs to, or "" when the frame
// is charged to its caller: memsim's shared cache and bound arithmetic,
// the standard library, and the repository's glue packages.
func layerOf(fn string) string {
	pkg, head, method := splitFunc(fn)
	switch pkg {
	case "repro/internal/memsim":
		switch {
		case head == "Hierarchy" || head == "New":
			return "memsim.hierarchy_cpu_s"
		case head == "LineSim" || head == "NewLineSim":
			return "memsim.linesim_cpu_s"
		case geomHelpers[head]:
			return "memsim.geomsim_cpu_s"
		}
		return ""
	case "repro/internal/astream":
		if captureFuncs[head] {
			return "astream.capture_cpu_s"
		}
		return "astream.replay_cpu_s"
	case "repro/internal/explore":
		switch {
		case exploreSearch[head], head == "Engine" && exploreSearch[method]:
			return "explore.search_cpu_s"
		case exploreCacheIO[head], head == "Cache" && exploreCacheIO[method]:
			return "explore.cache_io_cpu_s"
		}
		return "explore.engine_cpu_s"
	case "repro/internal/pareto":
		return "pareto.cpu_s"
	case "repro/internal/ddt", "repro/internal/vheap", "repro/internal/platform", "repro/internal/profiler":
		return "apps.cpu_s"
	}
	if strings.HasPrefix(pkg, "repro/internal/apps") {
		return "apps.cpu_s"
	}
	return ""
}

// chargeStack returns the layer of one sample, its stack leaf first.
func chargeStack(stack []string) string {
	for _, fn := range stack {
		for _, root := range gcRoots {
			if strings.HasPrefix(fn, root) {
				return "runtime.gc_cpu_s"
			}
		}
	}
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	return "other.cpu_s"
}

// layerCPU decodes a runtime/pprof CPU profile and returns the sampled
// CPU seconds charged to each layer.
func layerCPU(profile []byte) (map[string]float64, error) {
	p, err := decodeProfile(profile)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = 0
	}
	for _, s := range p.samples {
		var stack []string
		for _, id := range s.locs {
			for _, fid := range p.locs[id] {
				stack = append(stack, p.funcs[fid])
			}
		}
		out[chargeStack(stack)] += float64(s.cpuNanos) / 1e9
	}
	return out, nil
}

// profile is the part of a pprof profile the layer split reads.
type profile struct {
	samples []sample
	locs    map[uint64][]uint64 // location -> function IDs, innermost inlined frame first
	funcs   map[uint64]string   // function -> name
}

type sample struct {
	locs     []uint64 // leaf first
	cpuNanos int64
}

// decodeProfile reads the gzipped protocol buffer runtime/pprof writes
// (github.com/google/pprof profile.proto). Only the fields the layer
// split needs are decoded; the CPU time is the sample's last value.
func decodeProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locs: make(map[uint64][]uint64), funcs: make(map[uint64]string)}
	var strs []string
	funcName := make(map[uint64]int64) // function -> string index
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			var vals []int64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, u := range appendVarints(nil, v, b) {
						vals = append(vals, int64(u))
					}
				}
				return nil
			})
			if len(vals) > 0 {
				s.cpuNanos = vals[len(vals)-1]
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fids []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fids
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
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
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for id, si := range funcName {
		if si < 0 || int(si) >= len(strs) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, si, len(strs))
		}
		p.funcs[id] = strs[si]
	}
	return p, nil
}

var errTruncated = errors.New("truncated protocol buffer")

// fields walks a protocol buffer message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
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
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value, or
// a packed run when b is set.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
