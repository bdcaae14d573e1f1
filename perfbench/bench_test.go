package main

import (
	"io"
	"strings"
	"testing"
	"time"

	"waterwheel"
)

// tinyRun runs a workload at a small fraction of its size.
func tinyRun(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	p := params{workload: workload, seed: 1, seconds: 0.3, trace: trace, root: t.TempDir(), scale: 0.01}
	res, err := runOnce(p, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d", workload, res.Correct, res.Failed, res.Attempted)
	}
	return res
}

func TestWorkloadsTiny(t *testing.T) {
	e2e := []string{"setup_s", "ingest_tuples_per_s", "ack_p50_us", "ack_p90_us", "visible_p50_ms", "visible_p90_ms",
		"range_p50_ms", "range_p90_ms", "agg_p50_ms", "agg_p90_ms", "recur_p50_ms", "recur_p90_ms",
		"queries_per_s", "stored_bytes_per_tuple", "heap_mb"}
	for _, w := range []string{"ingest", "history"} {
		t.Run(w, func(t *testing.T) {
			res := tinyRun(t, w, false)
			for _, name := range e2e {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("metric %s missing", name)
				}
			}
			if len(res.Metrics) != len(e2e) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(e2e))
			}
		})
	}
}

func TestTracedRunTiny(t *testing.T) {
	res := tinyRun(t, "history", true)
	for _, name := range []string{"net.query_us", "wal.append_ns_per_tuple", "chunk.build_ms", "meta.register_us", "queryexec.dispatch_us", "lru.hit_ratio"} {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("per-layer metric %s missing", name)
		}
	}
	if res.Metrics["replay.ns_per_tuple"].Value <= 0 {
		t.Errorf("replay.ns_per_tuple = %v, want > 0", res.Metrics["replay.ns_per_tuple"].Value)
	}
}

// fixture is a small input with its oracle, one query over all of it and
// the exact answer as the program would return it.
func fixture(t *testing.T) (*oracle, waterwheel.Query, []waterwheel.Tuple) {
	t.Helper()
	data := genStream(5, 2000, 1000, epoch)
	o := newOracle(data)
	q := waterwheel.Query{Keys: waterwheel.KeyRange{Lo: 0, Hi: 1<<keySpanBits - 1}, Times: waterwheel.TimeRange{Lo: waterwheel.Timestamp(epoch), Hi: waterwheel.Timestamp(epoch + hour)}}
	want := o.rangeAnswer(q)
	if len(want) != len(data) {
		t.Fatalf("oracle answer has %d tuples, want %d", len(want), len(data))
	}
	ts := make([]waterwheel.Tuple, len(want))
	for i := range want {
		ts[i] = want[i].tuple(0)
	}
	if err := checkExact(ts, q, o); err != nil {
		t.Fatalf("exact answer rejected: %v", err)
	}
	return o, q, ts
}

func TestCheckerRejects(t *testing.T) {
	o, q, good := fixture(t)
	clone := func() []waterwheel.Tuple { return append([]waterwheel.Tuple(nil), good...) }
	cases := map[string]func() []waterwheel.Tuple{
		"dropped": func() []waterwheel.Tuple { ts := clone(); return append(ts[:10], ts[11:]...) },
		"duplicated": func() []waterwheel.Tuple {
			ts := clone()
			out := append([]waterwheel.Tuple(nil), ts[:11]...)
			return append(out, ts[10:]...)
		},
		"out-of-order": func() []waterwheel.Tuple { ts := clone(); ts[10], ts[11] = ts[11], ts[10]; return ts },
		"out-of-region": func() []waterwheel.Tuple {
			ts := clone()
			ts[len(ts)-1].Time = q.Times.Hi + 1
			return ts
		},
	}
	for want, mutate := range cases {
		err := checkExact(mutate(), q, o)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("checkExact on a %s tuple: err = %v", want, err)
		}
	}
}

func TestCheckerRejectsWrongAggregate(t *testing.T) {
	o, q, _ := fixture(t)
	for _, kind := range aggKinds {
		aq := waterwheel.AggregateQuery{Keys: q.Keys, Times: q.Times, Kind: kind}
		count, sum, min, max := o.fold(aq)
		res := &waterwheel.AggResult{Kind: kind}
		res.Count, res.Values, res.Sum, res.Min, res.Max = count, count, sum, min, max
		if err := checkAgg(res, aq, o); err != nil {
			t.Fatalf("%v: correct aggregate rejected: %v", kind, err)
		}
		wrong := *res
		switch kind {
		case waterwheel.AggCount:
			wrong.Count++
		case waterwheel.AggSum:
			wrong.Sum++
		case waterwheel.AggMin:
			wrong.Min++
		case waterwheel.AggMax:
			wrong.Max--
		}
		if err := checkAgg(&wrong, aq, o); err == nil {
			t.Errorf("%v: wrong aggregate accepted", kind)
		}
	}
}

func TestMarkerThatNeverAppearsFails(t *testing.T) {
	b := newBench(params{workload: "history", seed: 1, root: t.TempDir(), scale: 0.01}, io.Discard)
	if err := b.open(deployment{chunkBytes: 1 << 20, cacheBytes: 1 << 20, conns: 1}); err != nil {
		t.Fatal(err)
	}
	defer b.close()
	r := markerRec(7, epoch)
	// Inserted: appears.
	if err := b.insert(b.conns[0], []waterwheel.Tuple{r.tuple(0)}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := b.awaitMarker(b.conns[0], r, time.Now(), markerDeadline); err != nil {
		t.Fatalf("inserted marker: %v", err)
	}
	// Never inserted: the wait fails instead of hanging or passing.
	if _, err := b.awaitMarker(b.conns[0], markerRec(8, epoch), time.Now(), 50*time.Millisecond); err == nil {
		t.Fatal("a marker that was never sent was reported visible")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
