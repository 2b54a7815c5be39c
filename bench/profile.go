package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile is the part of a runtime/pprof CPU profile the benchmark
// reads: each sample's stack as function names (innermost first), its
// labels and its sample count. Where a layer has no public entry point to
// put a span around, its share of CPU is the share of samples whose stack
// passes through one of its functions.
type cpuProfile struct {
	samples []profSample
}

// profSample is one decoded stack sample.
type profSample struct {
	funcs  []string
	labels map[string]string
	count  int64
}

// profiler collects a CPU profile of the calling process.
type profiler struct {
	buf bytes.Buffer
}

// startProfile starts the process CPU profile.
func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and decodes it.
func (p *profiler) stop() (*cpuProfile, error) {
	pprof.StopCPUProfile()
	return parseProfile(p.buf.Bytes())
}

// withLabel runs fn with a pprof label; goroutines fn starts inherit it,
// so worker pools inside the call are attributed to it too.
func withLabel(key, value string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels(key, value), func(context.Context) { fn() })
}

// share returns the fraction of samples, among those whose label key has
// the given value (any sample when value is empty), whose stack contains a
// function matching one of the names. A name matches a function whose
// fully qualified name ends with it.
func (p *cpuProfile) share(key, value string, names ...string) float64 {
	var hit, total int64
	for _, s := range p.samples {
		if value != "" && s.labels[key] != value {
			continue
		}
		total += s.count
		if s.inAny(names) {
			hit += s.count
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

// Labels and pseudo-layers of the self shares: the load generator's
// goroutines carry roleLabel=loadgenRole; netHTTP is CPU in net/http and
// net outside any program frame (the serving side's transport).
const (
	roleLabel   = "role"
	loadgenRole = "loadgen"
	netHTTP     = "net_http"
)

// selfShareLayers are the layers whose share of a traced stretch's CPU is
// reported: the program's packages, then the two pseudo-layers.
var selfShareLayers = []string{
	"topology", "graph", "paths", "core", "sim", "shardsim", "telemetry",
	"experiments", "jobs", "cluster", "canon", netHTTP, loadgenRole,
}

// selfShareName is the metric of a layer's self share. The generator's
// share is not named "self": it counts every frame of its goroutines.
func selfShareName(layer string) string {
	if layer == loadgenRole {
		return layer + ".cpu_share"
	}
	return layer + ".self_cpu_share"
}

// layerShareSpecs lists the self-share metrics.
func layerShareSpecs() []metricSpec {
	var specs []metricSpec
	for _, l := range selfShareLayers {
		specs = append(specs, metricSpec{selfShareName(l), "fraction"})
	}
	return specs
}

// layerOf attributes a sample to one layer: the load generator when it
// carries the generator's label, else the package of its innermost frame
// in the program (so runtime work such as allocation counts for the
// package that asked for it), else net_http when the stack is in net/http
// or net, else "" (the Go runtime, the benchmark's own code and the rest).
func (s *profSample) layerOf() string {
	if s.labels[roleLabel] == loadgenRole {
		return loadgenRole
	}
	for _, f := range s.funcs {
		rest, ok := strings.CutPrefix(f, "repro/internal/")
		if !ok {
			continue
		}
		if i := strings.IndexByte(rest, '.'); i > 0 {
			return rest[:i]
		}
	}
	for _, f := range s.funcs {
		if strings.HasPrefix(f, "net/http.") || strings.HasPrefix(f, "net.") {
			return netHTTP
		}
	}
	return ""
}

// setProfileMetrics reports the per-layer CPU shares of a traced stretch:
// the shares of the validator, the engine step, dynamic runs and path
// congestion (samples whose stack passes through them), and each layer's
// self share (samples attributed to it by layerOf).
func setProfileMetrics(r *report, p *cpuProfile) {
	r.set("sim.validate.cpu_share", p.share("", "", validateFuncs...), "fraction")
	r.set("sim.step.cpu_share", p.share("", "", stepFuncs...), "fraction")
	r.set("sim.dynamic.cpu_share", p.share("", "", dynamicFuncs...), "fraction")
	r.set("paths.congestion.cpu_share", p.share("", "", congestionFuncs...), "fraction")
	self := map[string]int64{}
	var total int64
	for i := range p.samples {
		s := &p.samples[i]
		self[s.layerOf()] += s.count
		total += s.count
	}
	for _, l := range selfShareLayers {
		share := 0.0
		if total > 0 {
			share = float64(self[l]) / float64(total)
		}
		r.set(selfShareName(l), share, "fraction")
	}
}

// Functions whose CPU samples a traced run attributes to a layer.
var (
	validateFuncs   = []string{"sim.(*validator).check", "sim.(*validator).markID"}
	congestionFuncs = []string{"paths.(*Collection).PathCongestions"}
	stepFuncs       = []string{
		"sim.(*Engine).step", "sim.(*Engine).stepPacked", "sim.(*Engine).stepFlat",
		"sim.(*Engine).collectPacked", "sim.(*Engine).resolveBuckets", "sim.(*Engine).resolveGroups",
		"sim.(*Engine).convertPacked", "sim.(*Engine).release",
		"sim.(*shardedState).step", "sim.(*shardedState).runWorker",
	}
	dynamicFuncs = []string{"sim.RunDynamicWithEngine"}
)

// inAny reports whether the sample's stack contains one of the names.
func (s *profSample) inAny(names []string) bool {
	for _, f := range s.funcs {
		for _, n := range names {
			if strings.HasSuffix(f, n) {
				return true
			}
		}
	}
	return false
}

// parseProfile decodes a gzip-compressed profile.proto message.
func parseProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // string-table indexes of key and value
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = walkProto(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := walkProto(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendPacked(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendPacked(w, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				case 3:
					var kv [2]int64
					err := walkProto(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkProto(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkProto(b, func(f, _ int, v uint64, _ []byte) error {
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
		case 5: // function
			var id uint64
			var name int64
			err := walkProto(b, func(f, _ int, v uint64, _ []byte) error {
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
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	prof := &cpuProfile{}
	for _, s := range samples {
		ps := profSample{labels: map[string]string{}}
		if len(s.values) > 0 {
			ps.count = s.values[0]
		}
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				ps.funcs = append(ps.funcs, str(funcNames[f]))
			}
		}
		for _, kv := range s.labels {
			ps.labels[str(kv[0])] = str(kv[1])
		}
		prof.samples = append(prof.samples, ps)
	}
	return prof, nil
}

// walkProto calls fn for every field of a protobuf message: the field
// number, wire type, the value of varint and fixed fields, and the bytes
// of length-delimited ones.
func walkProto(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
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
			v = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked decodes a repeated varint field in either packed or
// unpacked form.
func appendPacked(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
