package iaclan

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"iaclan/internal/stats"
)

// Golden result fingerprints. Every planner optimization in this
// repository is held to a bitwise contract: the same seed must produce
// the same bits. These tests hash every numeric field of two short runs
// — an uplink campus on the fading shape and a downlink-triangle campus
// — and compare against constants pinned when the contract was last
// deliberately changed. A change that alters floating-point rounding
// anywhere on the planning path (solver, SVD/eigen, root finding,
// evaluation, channel dynamics) moves the hash and must re-pin it here
// explicitly, with the reason in the commit.

// fingerprint hashes a value's numeric content: FNV-1a over the exact
// bits of every int, uint, float and bool reachable through structs,
// slices, arrays and pointers, in declaration order (unexported fields
// included, so latency sketches contribute every bin).
func fingerprint(v any) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
				put(0)
				return
			}
			walk(v.Elem())
		case reflect.Struct:
			if v.Type() == sketchType {
				walkSketch(v, walk, put)
				return
			}
			for i := range v.NumField() {
				walk(v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			put(uint64(v.Len()))
			for i := range v.Len() {
				walk(v.Index(i))
			}
		case reflect.Float32, reflect.Float64:
			put(math.Float64bits(v.Float()))
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			put(uint64(v.Int()))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			put(v.Uint())
		case reflect.Bool:
			if v.Bool() {
				put(1)
			} else {
				put(0)
			}
		}
	}
	walk(reflect.ValueOf(v))
	return h.Sum64()
}

var sketchType = reflect.TypeFor[LatencySketch]()

// walkSketch hashes a latency sketch by content, whichever storage mode
// it is in: its count, nonNaN, nans, sum, min and max fields, then the
// length and every entry of the full bin-count array. A sparse sketch
// is expanded into that array, so the storage mode is not part of a
// fingerprint and the hash equals that of the all-dense layout.
func walkSketch(v reflect.Value, walk func(reflect.Value), put func(uint64)) {
	for _, name := range []string{"count", "nonNaN", "nans", "sum", "min", "max"} {
		walk(v.FieldByName(name))
	}
	if dense := v.FieldByName("dense"); !dense.IsNil() {
		walk(dense.Elem())
		return
	}
	counts := make([]uint64, v.FieldByName("dense").Type().Elem().Len())
	bin, cnt := v.FieldByName("bin"), v.FieldByName("cnt")
	for k := range int(v.FieldByName("n").Uint()) {
		counts[bin.Index(k).Uint()] = cnt.Index(k).Uint()
	}
	put(uint64(len(counts)))
	for _, c := range counts {
		put(c)
	}
}

// fingerprintBaseConfig is the shared shape of the pinned runs: two
// cells, two trials each, two workers, the best-of-two picker over
// 3-client groups and campus leakage.
func fingerprintBaseConfig() SimConfig {
	return SimConfig{
		Seed:        1,
		Workers:     2,
		PacketBytes: 1440,
		CPSlots:     2,
		MaxQueue:    64,
		Picker:      PickerBestOfTwo,
		GroupSize:   3,
		Cells:       SimCells{Count: 2, Leak: 0.15},
		Trials:      2,
	}
}

// Pinned fingerprints. Re-pin only for a deliberate change of results.
const (
	goldenCampusFading     = 0xc88920bbe1e1d76e
	goldenDownlinkTriangle = 0x973c10fcc85678a5
)

// TestGoldenFingerprintCampusFading pins a short run of the fading
// campus: 4-AP uplink chains re-planned every cycle under block fading,
// mobility, re-training, noise, residual cancellation and MCS.
func TestGoldenFingerprintCampusFading(t *testing.T) {
	cfg := fingerprintBaseConfig()
	cfg.Clients, cfg.APs, cfg.Uplink = 10, 4, true
	cfg.Workload = SimWorkload{Kind: WorkloadPoisson, PacketsPerSlot: 0.12}
	cfg.MaxRetries = 1
	cfg.Dynamics = SimDynamics{Eps: 0.3, CoherenceCycles: 1, RetrainCycles: 8, TrainSlots: 2, Mobility: true}
	cfg.Link = SimLink{NoiseDB: 8, ResidualCancel: true, MCS: true}
	cfg.Cycles = 40
	checkFingerprint(t, cfg, goldenCampusFading)
}

// TestGoldenFingerprintDownlinkTriangle pins a short downlink run: every
// group plans with the 3-AP triangle solver (characteristic polynomial
// roots and eigenvectors) under noise and MCS.
func TestGoldenFingerprintDownlinkTriangle(t *testing.T) {
	cfg := fingerprintBaseConfig()
	cfg.Clients, cfg.APs, cfg.Uplink = 12, 3, false
	cfg.Workload = SimWorkload{Kind: WorkloadPoisson, PacketsPerSlot: 0.1}
	cfg.Link = SimLink{NoiseDB: 8, MCS: true}
	cfg.Cycles = 200
	checkFingerprint(t, cfg, goldenDownlinkTriangle)
}

func checkFingerprint(t *testing.T, cfg SimConfig, want uint64) {
	t.Helper()
	res, err := SimulateCampus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(res); got != want {
		t.Fatalf("result fingerprint %#016x, pinned %#016x: results changed bits", got, want)
	}
}

// TestFingerprintSketchModeInvariant: a sparse sketch and a dense one
// holding the same samples hash alike, so the golden constants pin
// sketch contents, not storage.
func TestFingerprintSketchModeInvariant(t *testing.T) {
	var sparse LatencySketch
	dense := new(stats.DenseSketch).Sketch()
	for _, x := range []float64{0, 3, 3, 250, math.NaN(), 2e8} {
		sparse.Add(x)
		dense.Add(x)
	}
	if a, b := fingerprint(&sparse), fingerprint(dense); a != b {
		t.Fatalf("sparse sketch fingerprint %#016x, dense %#016x", a, b)
	}
	dense.Add(7)
	if a, b := fingerprint(&sparse), fingerprint(dense); a == b {
		t.Fatal("fingerprint ignores a bin count")
	}
}
