package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"waterwheel"
	"waterwheel/internal/telemetry"
)

// params are one run's settings.
type params struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// root holds the run's DataDirs and replay files.
	root string
	// scale multiplies every input size; 1 is the benchmark, tests use
	// a small fraction.
	scale float64
}

// deployment is the embedded store's shape, fixed per workload.
type deployment struct {
	chunkBytes int64
	cacheBytes int64
	conns      int
	// setups is how many times the set-up runs; setup_s is their median.
	setups int
}

// bench is one run: its deployment, connections and measurements.
type bench struct {
	p   params
	out io.Writer

	db    *waterwheel.DB
	ns    *waterwheel.NetServer
	conns []*waterwheel.Client
	dir   string
	opens int
	// chunkBytes is the deployment's flush threshold.
	chunkBytes int64

	ops *opCounts
	// checkFailed is set when a returned output disagreed with the oracle.
	checkFailed atomic.Bool

	// Latency samples by kind: ack, visible, range, agg, recur (timed
	// phase) and vrange, vagg, vrecur (verification phase).
	latMu sync.Mutex
	lat   map[string]*samples

	setupTimes   []float64
	preloadRates []float64
	ingestRate   float64
	heapBase     uint64
	heapEnd      uint64
	// final is the deployment's counters after verification.
	final waterwheel.Stats

	// Traced run only: spans of range and recurring queries, and of marker
	// polls, which read the memtables.
	spans     *spanAgg
	pollSpans *spanAgg
	// The telemetry window: snapshots at its ends, the marker polls it
	// holds, and the gauge sampler's stop function.
	pollsBefore, windowPolls int
	stopSampler              func()
	telStart                 map[string]telemetry.MetricSnapshot
	telEnd                   map[string]telemetry.MetricSnapshot
	backlog                  float64
	memBytes                 float64
	memTuples                float64
	tupleOut                 int64 // tuples returned by range and recurring queries
	// replay holds the run's batches for the write-path replay.
	replay [][]rec
}

func newBench(p params, out io.Writer) *bench {
	b := &bench{p: p, out: out, ops: newOpCounts(), lat: map[string]*samples{}}
	if p.trace {
		b.spans, b.pollSpans = newSpanAgg(), newSpanAgg()
	}
	return b
}

func (b *bench) samples(kind string) *samples {
	b.latMu.Lock()
	defer b.latMu.Unlock()
	s, ok := b.lat[kind]
	if !ok {
		s = &samples{}
		b.lat[kind] = s
	}
	return s
}

// open starts a fresh deployment under its own DataDir (ack-on-write
// durability, no wall-clock cadence: balancer, compaction and fsync
// intervals stay off) and dials it over loopback.
func (b *bench) open(d deployment) error {
	b.opens++
	b.dir = filepath.Join(b.p.root, fmt.Sprintf("db-%d-%d", os.Getpid(), b.opens))
	if err := os.RemoveAll(b.dir); err != nil {
		return err
	}
	db, err := waterwheel.Open(waterwheel.Options{
		Nodes:               1,
		IndexServersPerNode: 2,
		QueryServersPerNode: 2,
		DispatchersPerNode:  2,
		ChunkBytes:          d.chunkBytes,
		CacheBytes:          d.cacheBytes,
		DataDir:             b.dir,
		Durability:          "ack-on-write",
		Seed:                b.p.seed,
	})
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	b.db = db
	ns, err := db.Serve("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	b.ns = ns
	for i := 0; i < d.conns; i++ {
		c, err := waterwheel.Dial(ns.Addr)
		if err != nil {
			return fmt.Errorf("dial: %w", err)
		}
		b.conns = append(b.conns, c)
	}
	return nil
}

// close stops the deployment and removes its files.
func (b *bench) close() {
	for _, c := range b.conns {
		c.Close()
	}
	b.conns = nil
	if b.ns != nil {
		b.ns.Close()
		b.ns = nil
	}
	if b.db != nil {
		b.db.Close()
		b.db = nil
	}
	if b.dir != "" {
		os.RemoveAll(b.dir)
		b.dir = ""
	}
}

// liveHeap is the live heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setup runs open plus the workload's preload d.setups times, timing each
// from Open to the point the first timed operation may start, and keeps
// the last deployment. setup_s is the median.
func (b *bench) setup(d deployment, preload func() error) error {
	b.chunkBytes = d.chunkBytes
	for i := 0; i < d.setups; i++ {
		if i > 0 {
			b.close()
		}
		b.heapBase = liveHeap()
		start := time.Now()
		if err := b.open(d); err != nil {
			return err
		}
		if i == d.setups-1 {
			b.startWindow()
		}
		if preload != nil {
			if err := preload(); err != nil {
				return err
			}
		}
		b.setupTimes = append(b.setupTimes, time.Since(start).Seconds())
	}
	fmt.Fprintf(b.out, "info setups_s %v\n", b.setupTimes)
	return nil
}

// insert sends one batch on conn and, when ack is non-nil, times the
// ack.
func (b *bench) insert(c *waterwheel.Client, batch []waterwheel.Tuple, ack *samples) error {
	start := time.Now()
	err := c.InsertBatch(batch)
	if err == nil && ack != nil {
		ack.add(time.Since(start))
	}
	b.ops.record("insert", err)
	return err
}

// preload streams data over one connection in batches of batchLen, closed
// loop, calling DB.Rebalance once at rebalanceAt tuples. With gap > 0 it
// runs Drain after every gap tuples, where the input has a gap in event
// time: a live stream's consumers catch up during the wall time such a
// gap takes. With markEvery > 0 every markEvery-th batch carries a marker
// the client then waits to see (insertMarked); the markers sent are
// returned. It records the acked-and-visible rate: tuples over the time
// from the first send until the post-ack Drain returns. The barrier after
// it (Drain, Flush, Drain) leaves every tuple in registered chunks.
func (b *bench) preload(data []rec, rebalanceAt, gap, markEvery int, ack, vis *samples) ([]rec, error) {
	c := b.conns[0]
	batch := make([]waterwheel.Tuple, 0, batchLen+1)
	var markers []rec
	start := time.Now()
	for lo := 0; lo < len(data); lo += batchLen {
		hi := min(lo+batchLen, len(data))
		batch = batch[:0]
		for i := lo; i < hi; i++ {
			batch = append(batch, data[i].tuple(0))
		}
		var err error
		if k := lo / batchLen; markEvery > 0 && k%markEvery == markEvery-1 {
			m := markerRec(len(markers), data[lo].Time)
			markers = append(markers, m)
			err = b.insertMarked(c, batch, m, ack, vis)
		} else {
			err = b.insert(c, batch, ack)
		}
		if err != nil {
			return nil, fmt.Errorf("preload insert: %w", err)
		}
		if lo < rebalanceAt && hi >= rebalanceAt {
			b.db.Rebalance()
		}
		if gap > 0 && hi%gap == 0 && hi < len(data) {
			if err := b.drain(); err != nil {
				return nil, err
			}
		}
	}
	if err := b.drain(); err != nil {
		return nil, err
	}
	b.preloadRates = append(b.preloadRates, float64(len(data))/time.Since(start).Seconds())
	return markers, b.barrier()
}

func (b *bench) drain() error {
	err := b.conns[0].Drain()
	b.ops.record("drain", err)
	return err
}

// barrier makes every acked tuple queryable from chunks: Drain waits for
// the WAL consumers, and the Flush that follows swaps the memtables under
// the write lock every consumer insert holds a read lock on, so it also
// waits out an insert Drain raced past. The checks that follow a barrier
// therefore cannot see the Drain visibility fault of ROADMAP item 1;
// probeAfterDrain looks for it instead.
func (b *bench) barrier() error {
	if err := b.drain(); err != nil {
		return err
	}
	err := b.conns[0].Flush()
	b.ops.record("flush", err)
	if err != nil {
		return err
	}
	return b.drain()
}

// probeAfterDrain counts every stored tuple right after a Drain, before
// any Flush, and reports on an info line how many of want are missing:
// the Drain visibility fault of ROADMAP item 1 (insertBatchAt stores the
// consumed offset before the tree insert) shows as a shortfall here. The
// fault shows only now and then, so a shortfall is reported, not counted
// as a failed operation.
func (b *bench) probeAfterDrain(want int64) {
	res, err := b.conns[0].Aggregate(waterwheel.AggregateQuery{Keys: waterwheel.FullKeyRange(), Times: waterwheel.FullTimeRange(), Kind: waterwheel.AggCount})
	if err != nil {
		fmt.Fprintf(b.out, "info drain_probe error %v\n", err)
		return
	}
	fmt.Fprintf(b.out, "info drain_probe want=%d got=%d missing=%d\n", want, res.Count, want-int64(res.Count))
}

// query runs a tuple-returning query, traced in the traced run, and
// checks it with check outside the timed interval. kind names the
// samples and the operation; ok is false when the query failed.
func (b *bench) query(c *waterwheel.Client, kind string, q waterwheel.Query, check func([]waterwheel.Tuple) error) (ok bool) {
	var (
		res *waterwheel.Result
		tr  *waterwheel.QueryTrace
		err error
	)
	start := time.Now()
	if b.spans != nil {
		res, tr, err = c.QueryTraced(q)
	} else {
		res, err = c.Query(q)
	}
	d := time.Since(start)
	if err != nil {
		b.ops.record(kind, err)
		return false
	}
	b.samples(kind).add(d)
	if b.spans != nil {
		if kind == "poll" {
			b.pollSpans.add(tr, d, res.SubQueries)
		} else {
			b.spans.add(tr, d, res.SubQueries)
			b.tupleOut += int64(len(res.Tuples))
		}
	}
	b.record(kind, check(res.Tuples))
	return true
}

// record counts one operation of kind whose output check returned err.
func (b *bench) record(kind string, err error) {
	if err != nil {
		b.checkFailed.Store(true)
	}
	b.ops.record(kind, err)
}

// aggregate runs an aggregate query and checks it against the oracle's
// fold outside the timed interval.
func (b *bench) aggregate(c *waterwheel.Client, kind string, q waterwheel.AggregateQuery, o *oracle) {
	start := time.Now()
	res, err := c.Aggregate(q)
	d := time.Since(start)
	if err != nil {
		b.ops.record(kind, err)
		return
	}
	b.samples(kind).add(d)
	b.record(kind, checkAgg(res, q, o))
}

// snapshot reads the program's telemetry registry by metric name.
func (b *bench) snapshot() map[string]telemetry.MetricSnapshot {
	out := map[string]telemetry.MetricSnapshot{}
	for _, m := range b.db.Telemetry().Snapshot() {
		out[m.Name] = m
	}
	return out
}

// sampleGauges polls the WAL backlog gauge during the traced run's timed
// phase, keeping its maximum, until stop closes.
func (b *bench) sampleGauges(stop <-chan struct{}, done *sync.WaitGroup) {
	defer done.Done()
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if v := b.snapshot()["waterwheel_wal_backlog"].Value; v > b.backlog {
				b.backlog = v
			}
		}
	}
}

// startWindow opens the traced run's telemetry window right after the
// last set-up's Open, so it spans that set-up's preload, the timed phase
// and verification: the write-path counters of history move only in the
// preload. It snapshots the telemetry and starts the gauge sampler.
func (b *bench) startWindow() {
	if b.spans == nil {
		return
	}
	b.telStart = b.snapshot()
	b.pollsBefore = b.samples("poll").len()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go b.sampleGauges(stop, &wg)
	b.stopSampler = func() {
		close(stop)
		wg.Wait()
		snap := b.snapshot()
		b.memBytes = snap["waterwheel_memtable_bytes"].Value
		b.memTuples = snap["waterwheel_memtable_tuples"].Value
	}
}

// endTimed ends the timed phase: it stops the traced run's gauge sampler
// and records the live heap.
func (b *bench) endTimed() {
	if b.stopSampler != nil {
		b.stopSampler()
	}
	b.heapEnd = liveHeap()
}

// verify checks the whole data set after the final barrier: per key slice
// COUNT and SUM against the oracle's fold, the markers, then perKind each
// of exact range, aggregate and recurring-window queries drawn from the
// data. In the traced run the telemetry window ends here.
func (b *bench) verify(o *oracle, g *queryGen, shape queryShape, markers []rec, perKind int) {
	start := time.Now()
	defer func() { fmt.Fprintf(b.out, "info verify_s %.3f\n", time.Since(start).Seconds()) }()
	c := b.conns[0]
	const slices = 16
	step := uint64(1) << keySpanBits / slices
	for i := uint64(0); i < slices; i++ {
		q := waterwheel.AggregateQuery{
			Keys:  waterwheel.KeyRange{Lo: waterwheel.Key(i * step), Hi: waterwheel.Key((i+1)*step - 1)},
			Times: waterwheel.FullTimeRange(),
			Kind:  waterwheel.AggSum,
		}
		b.aggregate(c, "complete", q, o)
	}
	b.checkMarkers(markers)
	for i := 0; i < perKind; i++ {
		q := shape.rangeQuery(g, i)
		b.query(c, "vrange", q, func(ts []waterwheel.Tuple) error { return checkExact(ts, q, o) })
		aq := shape.aggQuery(g, i)
		b.aggregate(c, "vagg", aq, o)
		rq := shape.recurQuery(g, i)
		b.query(c, "vrecur", rq, func(ts []waterwheel.Tuple) error { return checkExact(ts, rq, o) })
	}
	b.final = b.db.Stats()
	if b.spans != nil {
		b.telEnd = b.snapshot()
		b.windowPolls = b.samples("poll").len() - b.pollsBefore
	}
}

// insertMarked sends batch with marker r appended and then polls on the
// same connection until a query returns the marker, recording the time
// from the ack as a visibility sample. The marker goes in the write
// stream, so it waits behind whatever the consumers have queued.
func (b *bench) insertMarked(c *waterwheel.Client, batch []waterwheel.Tuple, r rec, ack, vis *samples) error {
	if err := b.insert(c, append(batch, r.tuple(0)), ack); err != nil {
		return err
	}
	d, err := b.awaitMarker(c, r, time.Now(), markerDeadline)
	if err != nil {
		b.record("marker", err)
		return nil
	}
	vis.add(d)
	return nil
}

// checkMarkers checks, after the final barrier, that exactly the markers
// sent are stored.
func (b *bench) checkMarkers(sent []rec) {
	q := waterwheel.Query{Keys: waterwheel.KeyRange{Lo: waterwheel.Key(markerBase), Hi: waterwheel.Key(2*markerBase - 1)}, Times: waterwheel.FullTimeRange()}
	o := newOracle(sent)
	b.query(b.conns[0], "complete", q, func(ts []waterwheel.Tuple) error { return checkExact(ts, q, o) })
}

// markerDeadline is how long a marker may take to appear before it counts
// as a failed operation.
const markerDeadline = 5 * time.Second

// awaitMarker polls for marker r until a query returns it, and returns
// the time since acked. It fails when a poll returns anything but the
// marker, or when the marker has not appeared within deadline.
func (b *bench) awaitMarker(c *waterwheel.Client, r rec, acked time.Time, deadline time.Duration) (time.Duration, error) {
	q := waterwheel.Query{Keys: waterwheel.KeyRange{Lo: waterwheel.Key(r.Key), Hi: waterwheel.Key(r.Key)}, Times: waterwheel.FullTimeRange()}
	for {
		var seen bool
		ok := b.query(c, "poll", q, func(ts []waterwheel.Tuple) error {
			err := checkShape(ts, q)
			if err == nil && len(ts) > 0 && (len(ts) > 1 || compareTupleRec(&ts[0], &r) != 0) {
				err = fmt.Errorf("marker poll returned %d tuples, want only marker %d", len(ts), r.Key)
			}
			seen = len(ts) == 1 && err == nil
			return err
		})
		if ok && seen {
			return time.Since(acked), nil
		}
		if time.Since(acked) > deadline {
			return 0, fmt.Errorf("marker %d never appeared within %v", r.Key, deadline)
		}
	}
}

// result assembles the run's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd computes every end-to-end metric.
func (b *bench) endToEnd() map[string]metric {
	st := b.final
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", median(b.setupTimes))
	rate := b.ingestRate
	if rate == 0 {
		rate = median(b.preloadRates)
	}
	put("ingest_tuples_per_s", "1/s", rate)
	ack := b.samples("ack")
	put("ack_p50_us", "us", us(ack.stat(0.5)))
	put("ack_p90_us", "us", us(ack.stat(0.9)))
	for _, k := range []string{"visible", "range", "agg", "recur"} {
		s := b.samples(k)
		put(k+"_p50_ms", "ms", ms(s.stat(0.5)))
		put(k+"_p90_ms", "ms", ms(s.stat(0.9)))
	}
	put("queries_per_s", "1/s", b.samples("loop").rate())
	put("stored_bytes_per_tuple", "B", float64(st.FlushBytes)/math.Max(1, float64(st.Ingested)))
	put("heap_mb", "MB", (float64(b.heapEnd)-float64(b.heapBase))/(1<<20))
	return m
}

// writeMetrics prints metrics one per line, sorted by name.
func writeMetrics(w io.Writer, prefix string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %-40s %14.4f %s\n", prefix, n, m[n].Value, m[n].Unit)
	}
}
