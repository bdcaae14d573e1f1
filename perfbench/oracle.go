package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"

	"waterwheel"
	"waterwheel/internal/workload"
)

// rec is one input tuple as the benchmark keeps it: fixed-size and free of
// pointers, so the oracle's copy of the data adds nothing for the garbage
// collector to scan while the deployment under test runs in the same
// process. Batch is the tuple's batch number within its round.
type rec struct {
	Key   uint64
	Time  int64
	Pay   [16]byte
	Batch int32
}

// tuple views r as a waterwheel tuple; the payload aliases r.
func (r *rec) tuple(shift int64) waterwheel.Tuple {
	return waterwheel.Tuple{Key: waterwheel.Key(r.Key), Time: waterwheel.Timestamp(r.Time + shift), Payload: r.Pay[:]}
}

// keySpanBits is the width of the T-Drive key domain: 16-bit z-order grid
// cells per axis give keys below 2^32.
const keySpanBits = 32

// markerBase is the first marker key. T-Drive keys stay below 2^32, so the
// stream never produces a key at or above it.
const markerBase uint64 = 1 << 40

// genStream returns n in-order tuples with T-Drive keys, payloads and
// event times from internal/workload's generator, its clock running at
// rate events per second from t0.
func genStream(seed int64, n, rate int, t0 int64) []rec {
	g := workload.NewTDrive(workload.TDriveConfig{Seed: seed, EventsPerSecond: rate, StartTime: waterwheel.Timestamp(t0)})
	out := make([]rec, n)
	for i := range out {
		t := g.Next()
		out[i] = rec{Key: uint64(t.Key), Time: int64(t.Time), Batch: int32(i / batchLen)}
		copy(out[i].Pay[:], t.Payload)
	}
	return out
}

// genBursts returns hours bursts of perHour tuples from one T-Drive
// generator running at rate events per second, burst h moved to start
// at hour h after epoch; lateFrac of the tuples are stamped up to lateMax
// earlier than the generator's clock (never before epoch). The clock
// starts at lateMax, since the generator never stamps a tuple before 0.
func genBursts(seed int64, hours, perHour, rate int, lateFrac float64, lateMax int64) []rec {
	g := workload.NewTDrive(workload.TDriveConfig{Seed: seed, EventsPerSecond: rate, StartTime: waterwheel.Timestamp(lateMax), LateFrac: lateFrac, LateMaxMillis: lateMax})
	out := make([]rec, hours*perHour)
	var shift int64
	for i := range out {
		if i%perHour == 0 {
			shift = epoch + int64(i/perHour)*hour - int64(g.Now())
		}
		t := g.Next()
		out[i] = rec{Key: uint64(t.Key), Time: max(int64(t.Time)+shift, epoch), Batch: int32(i / batchLen)}
		copy(out[i].Pay[:], t.Payload)
	}
	return out
}

// markerRec is marker number m, stamped with event time t.
func markerRec(m int, t int64) rec {
	r := rec{Key: markerBase + uint64(m), Time: t}
	binary.BigEndian.PutUint64(r.Pay[:], uint64(m))
	return r
}

// compareRec is the canonical result order (key, time, payload), the order
// of model.CompareTuples.
func compareRec(a, b *rec) int {
	switch {
	case a.Key != b.Key:
		if a.Key < b.Key {
			return -1
		}
		return 1
	case a.Time != b.Time:
		if a.Time < b.Time {
			return -1
		}
		return 1
	}
	return bytes.Compare(a.Pay[:], b.Pay[:])
}

// oracle answers queries over the acknowledged input by brute force over
// its own indexes of the input, independently of every layer of the
// program. The data is rounds copies of data, round r shifted by r*span
// in time; included says whether batch b of round r is part of the
// answer (nil: every tuple is).
type oracle struct {
	data     []rec
	byKey    []int32 // data positions in canonical order
	byTime   []int32 // data positions in time order
	rounds   int
	span     int64
	included func(round int, batch int32) bool
}

func newOracle(data []rec) *oracle {
	byKey := make([]int32, len(data))
	for i := range byKey {
		byKey[i] = int32(i)
	}
	byTime := append([]int32(nil), byKey...)
	sort.Slice(byKey, func(i, j int) bool { return compareRec(&data[byKey[i]], &data[byKey[j]]) < 0 })
	sort.Slice(byTime, func(i, j int) bool { return data[byTime[i]].Time < data[byTime[j]].Time })
	return &oracle{data: data, byKey: byKey, byTime: byTime, rounds: 1}
}

// keyFrom returns the first byKey position whose key is at least k.
func (o *oracle) keyFrom(k uint64) int {
	return sort.Search(len(o.byKey), func(i int) bool { return o.data[o.byKey[i]].Key >= k })
}

// timeFrom returns the first byTime position whose time is at least t.
func (o *oracle) timeFrom(t int64) int {
	return sort.Search(len(o.byTime), func(i int) bool { return o.data[o.byTime[i]].Time >= t })
}

// each visits every included instance in region, in no particular order,
// walking whichever index holds fewer candidates: the key range, or the
// time window in each round.
func (o *oracle) each(keys waterwheel.KeyRange, times waterwheel.TimeRange, fn func(r *rec, t int64)) {
	kLo, kHi := o.keyFrom(uint64(keys.Lo)), len(o.byKey)
	if keys.Hi < waterwheel.Key(^uint64(0)) {
		kHi = o.keyFrom(uint64(keys.Hi) + 1)
	}
	type window struct{ lo, hi int }
	windows := make([]window, o.rounds)
	inTime := 0
	full := waterwheel.FullTimeRange()
	for round := range windows {
		shift := int64(round) * o.span
		lo, hi := 0, len(o.byTime)
		if times.Lo != full.Lo {
			lo = o.timeFrom(int64(times.Lo) - shift)
		}
		if times.Hi != full.Hi {
			hi = o.timeFrom(int64(times.Hi) - shift + 1)
		}
		windows[round] = window{lo, hi}
		inTime += hi - lo
	}
	visit := func(r *rec, round int) {
		t := r.Time + int64(round)*o.span
		if uint64(keys.Lo) <= r.Key && r.Key <= uint64(keys.Hi) && int64(times.Lo) <= t && t <= int64(times.Hi) &&
			(o.included == nil || o.included(round, r.Batch)) {
			fn(r, t)
		}
	}
	if inTime < (kHi-kLo)*o.rounds {
		for round, w := range windows {
			for i := w.lo; i < w.hi; i++ {
				visit(&o.data[o.byTime[i]], round)
			}
		}
		return
	}
	for i := kLo; i < kHi; i++ {
		for round := 0; round < o.rounds; round++ {
			visit(&o.data[o.byKey[i]], round)
		}
	}
}

// rangeAnswer is the exact answer to q, in canonical order.
func (o *oracle) rangeAnswer(q waterwheel.Query) []rec {
	var out []rec
	o.each(q.Keys, q.Times, func(r *rec, t int64) {
		if q.Recur != nil && !q.Recur.Contains(waterwheel.Timestamp(t)) {
			return
		}
		c := *r
		c.Time = t
		out = append(out, c)
	})
	sort.Slice(out, func(i, j int) bool { return compareRec(&out[i], &out[j]) < 0 })
	return out
}

// fold is the oracle's COUNT/SUM/MIN/MAX over q's region, of the big-endian
// uint64 at payload offset 0 (the deployment's aggregate field).
func (o *oracle) fold(q waterwheel.AggregateQuery) (count, sum, min, max uint64) {
	first := true
	o.each(q.Keys, q.Times, func(r *rec, _ int64) {
		v := binary.BigEndian.Uint64(r.Pay[:8])
		count++
		sum += v
		if first || v < min {
			min = v
		}
		if first || v > max {
			max = v
		}
		first = false
	})
	return
}

// checkShape checks what every result must satisfy: tuples of the input's
// payload size, each inside the query's region and recurring window, in
// canonical order.
func checkShape(got []waterwheel.Tuple, q waterwheel.Query) error {
	for i := range got {
		t := &got[i]
		if len(t.Payload) != len(rec{}.Pay) {
			return fmt.Errorf("tuple %v has a %d-byte payload, want %d", t, len(t.Payload), len(rec{}.Pay))
		}
		if !q.Keys.Contains(t.Key) || !q.Times.Contains(t.Time) || (q.Recur != nil && !q.Recur.Contains(t.Time)) {
			return fmt.Errorf("out-of-region tuple %v for keys %v times %v", t, q.Keys, q.Times)
		}
		if i > 0 && compareTuples(&got[i-1], t) > 0 {
			return fmt.Errorf("out-of-order tuple %v at position %d", t, i)
		}
	}
	return nil
}

// checkExact checks a result against the oracle's exact answer: the same
// key, time and payload multiset, sorted, inside the region.
func checkExact(got []waterwheel.Tuple, q waterwheel.Query, o *oracle) error {
	if err := checkShape(got, q); err != nil {
		return err
	}
	want := o.rangeAnswer(q)
	i, j := 0, 0
	for i < len(got) || j < len(want) {
		var c int
		switch {
		case i == len(got):
			c = 1
		case j == len(want):
			c = -1
		default:
			c = compareTupleRec(&got[i], &want[j])
		}
		switch {
		case c == 0:
			i++
			j++
		case c > 0:
			return fmt.Errorf("dropped tuple key=%d time=%d (got %d tuples, want %d)", want[j].Key, want[j].Time, len(got), len(want))
		case i > 0 && compareTuples(&got[i-1], &got[i]) == 0:
			return fmt.Errorf("duplicated tuple key=%d time=%d (got %d tuples, want %d)", got[i].Key, got[i].Time, len(got), len(want))
		default:
			return fmt.Errorf("unexpected tuple key=%d time=%d (got %d tuples, want %d)", got[i].Key, got[i].Time, len(got), len(want))
		}
	}
	return nil
}

// compareTuples is compareRec's order on result tuples.
func compareTuples(a, b *waterwheel.Tuple) int {
	switch {
	case a.Key != b.Key:
		if a.Key < b.Key {
			return -1
		}
		return 1
	case a.Time != b.Time:
		if a.Time < b.Time {
			return -1
		}
		return 1
	}
	return bytes.Compare(a.Payload, b.Payload)
}

// compareTupleRec orders a result tuple against an oracle instance.
func compareTupleRec(a *waterwheel.Tuple, b *rec) int {
	switch {
	case uint64(a.Key) != b.Key:
		if uint64(a.Key) < b.Key {
			return -1
		}
		return 1
	case int64(a.Time) != b.Time:
		if int64(a.Time) < b.Time {
			return -1
		}
		return 1
	}
	return bytes.Compare(a.Payload, b.Pay[:])
}

// checkAgg checks an aggregate result against the oracle's fold.
func checkAgg(got *waterwheel.AggResult, q waterwheel.AggregateQuery, o *oracle) error {
	count, sum, min, max := o.fold(q)
	if got.Count != count {
		return fmt.Errorf("%v COUNT=%d, oracle %d", q.Kind, got.Count, count)
	}
	v, ok := got.Value()
	var want uint64
	switch q.Kind {
	case waterwheel.AggCount:
		want = count
	case waterwheel.AggSum:
		want = sum
	case waterwheel.AggMin:
		want = min
	case waterwheel.AggMax:
		want = max
	}
	if ok != (count > 0 || q.Kind == waterwheel.AggCount || q.Kind == waterwheel.AggSum) || (ok && v != want) {
		return fmt.Errorf("%v=%d (defined %v), oracle %d over %d tuples", q.Kind, v, ok, want, count)
	}
	return nil
}

// queryGen draws query regions centred on tuples of the data, so a query
// of any selectivity lands where data is; ranges drawn uniformly over the
// T-Drive key domain come back empty for about a quarter of queries.
type queryGen struct {
	rng  *rand.Rand
	data []rec
}

// around returns a key range of width sel*2^32 and a time window of
// length span, both centred on a random input tuple.
func (g *queryGen) around(sel float64, span int64) (waterwheel.KeyRange, waterwheel.TimeRange) {
	r := &g.data[g.rng.Intn(len(g.data))]
	return g.keysAround(r.Key, sel), waterwheel.TimeRange{Lo: waterwheel.Timestamp(r.Time - span/2), Hi: waterwheel.Timestamp(r.Time + span/2)}
}

func (g *queryGen) keysAround(k uint64, sel float64) waterwheel.KeyRange {
	half := uint64(sel * float64(uint64(1)<<keySpanBits) / 2)
	lo := uint64(0)
	if k > half {
		lo = k - half
	}
	return waterwheel.KeyRange{Lo: waterwheel.Key(lo), Hi: waterwheel.Key(k + half)}
}
