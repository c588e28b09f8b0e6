package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"slices"

	"iaclan"
)

// referenceSeed is the seed the reference values were recorded at; the
// reference check runs only at this seed.
const referenceSeed = 1

// reference is one workload's campus-wide outcome at referenceSeed.
type reference struct {
	Throughput        float64 `json:"throughput_bits_per_slot"`
	DeliveredFraction float64 `json:"delivered_fraction"`
	P95Latency        float64 `json:"p95_latency_slots"`
}

// Reference bands: relative distance from the recorded value a run may
// show before the check fails. Loose enough for a change that alters
// floating-point rounding in the planner, tight enough to catch a
// change in the model.
const (
	bandThroughput = 0.02
	bandDelivered  = 0.02
	bandP95        = 0.05
)

//go:embed reference.json
var referenceJSON []byte

// loadReferences parses the embedded reference values, keyed by workload.
func loadReferences() (map[string]reference, error) {
	var refs map[string]reference
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

// checkReference compares a campus result against its reference values.
func checkReference(res iaclan.SimCampusResult, ref reference) error {
	c := res.Campus
	for _, f := range []struct {
		name      string
		got, want float64
		band      float64
	}{
		{"throughput", c.SumThroughputBitsPerSlot, ref.Throughput, bandThroughput},
		{"delivered fraction", c.DeliveredFraction, ref.DeliveredFraction, bandDelivered},
		{"p95 latency", c.P95LatencySlots, ref.P95Latency, bandP95},
	} {
		if !(math.Abs(f.got-f.want) <= f.band*math.Abs(f.want)) {
			return fmt.Errorf("%s %v is outside %.0f%% of the reference %v", f.name, f.got, 100*f.band, f.want)
		}
	}
	return nil
}

// checkResult returns the result's digest and verifies properties every
// run must have whatever the seed: no field is NaN, packets are never
// created by the accounting, fairness is a valid Jain index, and
// traffic flows.
func checkResult(res iaclan.SimCampusResult) (uint64, error) {
	d, nan := digest(res)
	if nan != "" {
		return d, fmt.Errorf("%s is NaN", nan)
	}
	if len(res.PerCell) == 0 {
		return d, fmt.Errorf("no cells in the result")
	}
	for i, s := range append(slices.Clip(res.PerCell), res.Campus) {
		name := fmt.Sprintf("cell %d", i)
		if i == len(res.PerCell) {
			name = "campus"
		}
		if got := s.DeliveredPackets + s.DroppedPackets + s.BufferDroppedPackets; got > s.OfferedPackets {
			return d, fmt.Errorf("%s: delivered+dropped+buffer-dropped %d exceeds offered %d", name, got, s.OfferedPackets)
		}
		if !(s.JainFairness > 0 && s.JainFairness <= 1+1e-12) {
			return d, fmt.Errorf("%s: Jain fairness %v outside (0, 1]", name, s.JainFairness)
		}
		if !(s.SumThroughputBitsPerSlot > 0) {
			return d, fmt.Errorf("%s: throughput %v is not positive", name, s.SumThroughputBitsPerSlot)
		}
	}
	return d, nil
}

var sketchType = reflect.TypeFor[*iaclan.LatencySketch]()

// digest hashes every numeric field of a campus result (FNV-1a over the
// exact bits, in field order) into result_digest: two runs with equal
// digests produced bit-identical results. Latency sketches contribute
// their count, p50 and p95. It also names the first NaN field found, if
// any (by field path; slice indices are left out).
func digest(res iaclan.SimCampusResult) (sum uint64, nan string) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
				put(0)
				return
			}
			if v.Type() == sketchType {
				sk := v.Interface().(*iaclan.LatencySketch)
				put(uint64(sk.Count()))
				put(math.Float64bits(sk.Quantile(50)))
				put(math.Float64bits(sk.Quantile(95)))
				return
			}
			walk(v.Elem(), path)
		case reflect.Struct:
			for i := range v.NumField() {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice, reflect.Array:
			put(uint64(v.Len()))
			for i := range v.Len() {
				walk(v.Index(i), path)
			}
		case reflect.Float32, reflect.Float64:
			f := v.Float()
			if math.IsNaN(f) && nan == "" {
				nan = path
			}
			put(math.Float64bits(f))
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
	walk(reflect.ValueOf(res), "CampusResult")
	return h.Sum64(), nan
}
