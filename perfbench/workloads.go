package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"waterwheel"
)

const (
	hour = int64(3_600_000)
	day  = 24 * hour
	// epoch is the event time the inputs start at (2024-01-01T00:00Z), a
	// day boundary so daily windows line up with days of input.
	epoch = int64(1_704_067_200_000)
	// batchLen is the closed-loop insert batch of ingest and the preloads.
	batchLen = 256
	// markEvery is how many closed-loop batches of ingest and of the
	// preloads go by between markers.
	markEvery = 16
	// ingestRate is the event rate of ingest's stream, near the rate the
	// deployment sustains over two connections, so event time runs about
	// as fast as wall time and a batch spans under a millisecond.
	ingestRate = 400_000
	// historyRate is the event rate within history's bursts: the
	// generator's 10,357 taxis each reporting about every 10 s.
	historyRate = 1_000
	// historyPerHour is the tuples of one hourly burst (8.2 s of event
	// time at historyRate); a whole number of batches.
	historyPerHour = 32 * batchLen
)

// queryShape sets the query mix over a workload's data: key selectivities
// (shares of the 2^32 T-Drive key domain) and window lengths, all centred
// on tuples drawn from the data.
type queryShape struct {
	rangeSel, aggSel   []float64
	rangeSpan, aggSpan []int64
	recurSel           []float64
	recurLen           int64
	// whole is the time span recurring-window queries cover.
	whole waterwheel.TimeRange
}

var aggKinds = []waterwheel.AggKind{waterwheel.AggCount, waterwheel.AggSum, waterwheel.AggMin, waterwheel.AggMax}

// The i-th query of a kind cycles through every combination of the
// kind's selectivities and window lengths (and, for aggregates, kinds),
// so each run holds the same mix; only the centres are drawn.

func (s queryShape) rangeQuery(g *queryGen, i int) waterwheel.Query {
	keys, times := g.around(s.rangeSel[i%len(s.rangeSel)], s.rangeSpan[i/len(s.rangeSel)%len(s.rangeSpan)])
	return waterwheel.Query{Keys: keys, Times: times}
}

func (s queryShape) aggQuery(g *queryGen, i int) waterwheel.AggregateQuery {
	j := i / len(aggKinds)
	keys, times := g.around(s.aggSel[j%len(s.aggSel)], s.aggSpan[j/len(s.aggSel)%len(s.aggSpan)])
	return waterwheel.AggregateQuery{Keys: keys, Times: times, Kind: aggKinds[i%len(aggKinds)]}
}

// recurQuery is a daily window of recurLen starting at the time of day of
// a drawn tuple, across the whole history.
func (s queryShape) recurQuery(g *queryGen, i int) waterwheel.Query {
	r := &g.data[g.rng.Intn(len(g.data))]
	start := ((r.Time-s.recurLen/2)%day + day) % day
	return waterwheel.Query{
		Keys:  g.keysAround(r.Key, s.recurSel[i%len(s.recurSel)]),
		Times: s.whole,
		Recur: waterwheel.Daily(start, s.recurLen),
	}
}

// scaled is n scaled by the run's size factor, at least min.
func (b *bench) scaled(n, least int) int {
	return max(int(float64(n)*b.p.scale), least)
}

func (b *bench) timed() time.Duration {
	return time.Duration(b.p.seconds * float64(time.Second))
}

// run executes the workload end to end, leaving the deployment open for
// the metrics and the replay.
func (b *bench) run() error {
	switch b.p.workload {
	case "ingest":
		return b.runIngest()
	case "history":
		return b.runHistory()
	}
	return fmt.Errorf("unknown workload %q (want ingest or history)", b.p.workload)
}

// runIngest: closed-loop batched inserts of in-order tuples on every
// connection, then a closed-loop query phase over what was ingested. The
// input is a base stretch of T-Drive tuples at ingestRate replayed in
// rounds, round r shifted r stretches later, so any run length has
// distinct, in-order input without generating it during the timed phase.
func (b *bench) runIngest() error {
	nBase := b.scaled(1<<20, 4*batchLen)
	nBase -= nBase % batchLen
	base := genStream(b.p.seed, nBase, ingestRate, epoch)
	// span is the base's event-time length; round r starts just after
	// round r-1 ends.
	span := base[nBase-1].Time - epoch + 1
	perRound := nBase / batchLen
	// Set-up warms the deployment with the first tenth of the base stretch,
	// calling DB.Rebalance halfway through it, so the timed phase starts
	// on balanced partitions.
	warm := max(perRound/10, 1)
	d := deployment{chunkBytes: 4 << 20, cacheBytes: 64 << 20, conns: 2, setups: 5}
	err := b.setup(d, func() error {
		_, err := b.preload(base[:warm*batchLen], warm*batchLen/2, 0, 0, nil, nil)
		return err
	})
	if err != nil {
		return err
	}

	ack, vis := b.samples("ack"), b.samples("visible")
	var (
		next    atomic.Int64
		mu      sync.Mutex
		acked   = map[int64]bool{}
		markers []rec
		wg      sync.WaitGroup
	)
	for j := 0; j < warm; j++ {
		acked[int64(j)] = true
	}
	next.Store(int64(warm))
	start := time.Now()
	// A third of the timed phase sends, two thirds query: the deployment
	// keeps every WAL record in memory, so the insert phase is kept to
	// what the host's memory allows, and the query figures need the
	// longer phase to be steady.
	deadline := start.Add(b.timed() / 3)
	for _, c := range b.conns {
		wg.Add(1)
		go func(c *waterwheel.Client) {
			defer wg.Done()
			batch := make([]waterwheel.Tuple, 0, batchLen+1)
			for time.Now().Before(deadline) {
				j := next.Add(1) - 1
				round, bi := j/int64(perRound), int(j%int64(perRound))
				batch = batch[:0]
				for i := bi * batchLen; i < (bi+1)*batchLen; i++ {
					batch = append(batch, base[i].tuple(round*span))
				}
				var err error
				if j%markEvery == markEvery-1 {
					m := markerRec(int(j/markEvery), base[bi*batchLen].Time+round*span)
					if err = b.insertMarked(c, batch, m, ack, vis); err == nil {
						mu.Lock()
						markers = append(markers, m)
						mu.Unlock()
					}
				} else {
					err = b.insert(c, batch, ack)
				}
				if err != nil {
					continue
				}
				mu.Lock()
				acked[j] = true
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if err := b.drain(); err != nil {
		return err
	}
	b.ingestRate = float64((len(acked)-warm)*batchLen) / time.Since(start).Seconds()
	b.probeAfterDrain(int64(len(acked)*batchLen + len(markers)))
	b.endTimed()
	if err := b.barrier(); err != nil {
		return err
	}

	o := newOracle(base)
	o.span = span
	o.rounds = int(next.Load()/int64(perRound)) + 1
	o.included = func(round int, batch int32) bool { return acked[int64(round*perRound)+int64(batch)] }
	// Windows are shares of a round's span, so a query covers the same
	// share of the data whatever the stream's rate. Recurring windows span
	// the first two rounds whatever the run reached, so their cost does
	// not follow the ingest rate; all of the stream lies in one day, so a
	// daily window matches one stretch of it.
	whole := waterwheel.TimeRange{Lo: waterwheel.Timestamp(epoch), Hi: waterwheel.Timestamp(epoch + 2*span - 1)}
	shape := queryShape{
		rangeSel: []float64{0.0005, 0.002, 0.01}, rangeSpan: []int64{span / 96, span / 24, span / 8},
		aggSel: []float64{0.002, 0.01, 0.05}, aggSpan: []int64{span / 24, span / 8, span / 4},
		recurSel: []float64{0.0005, 0.002}, recurLen: span / 24, whole: whole,
	}
	// Queries centre on tuples of the rounds the run completed.
	done := base
	if full := int(next.Load()) / perRound; full == 0 {
		done = base[:len(acked)*batchLen]
	}
	// The run's query figures come from a closed-loop query phase over
	// what it ingested, after the barrier.
	b.queryLoop(o, &queryGen{rng: rand.New(rand.NewSource(b.p.seed + 3)), data: done}, shape, b.timed()-b.timed()/3)
	b.verify(o, &queryGen{rng: rand.New(rand.NewSource(b.p.seed + 7)), data: done}, shape, markers, 300)
	for j := 0; j < perRound && acked[int64(j)]; j++ {
		b.replay = append(b.replay, base[j*batchLen:(j+1)*batchLen])
	}
	return nil
}

// runHistory: set-up preloads days of history over one connection; the
// timed phase is a closed-loop mix of historical range queries,
// aggregates and recurring daily windows, each checked exactly. The
// history is one burst of historyPerHour tuples at historyRate in every
// hour of four days, with 1% of tuples up to 3 h late. Main chunks span
// hours, so hour/day buckets prune, and the query servers' caches hold
// about a third of the chunk bytes, so the LRU evicts and misses read the
// DFS.
func (b *bench) runHistory() error {
	const days = 4
	perHour := b.scaled(historyPerHour, batchLen)
	perHour -= perHour % batchLen
	data := genBursts(b.p.seed, days*24, perHour, historyRate, 0.01, 3*hour)
	n := len(data)
	// The oracle is built before set-up, so heap_mb does not count it.
	o := newOracle(data)
	d := deployment{chunkBytes: 1 << 20, cacheBytes: 4 << 20, conns: 1, setups: 8}
	ack, vis := b.samples("ack"), b.samples("visible")
	var markers []rec
	err := b.setup(d, func() (err error) {
		markers, err = b.preload(data, n/12, perHour, markEvery, ack, vis)
		return err
	})
	if err != nil {
		return err
	}
	shape := queryShape{
		rangeSel: []float64{0.0005, 0.002, 0.01}, rangeSpan: []int64{hour / 4, hour, 3 * hour},
		aggSel: []float64{0.002, 0.01, 0.05}, aggSpan: []int64{hour, 6 * hour, day},
		recurSel: []float64{0.0005, 0.002}, recurLen: hour,
		whole: waterwheel.TimeRange{Lo: waterwheel.Timestamp(epoch), Hi: waterwheel.Timestamp(epoch + days*day - 1)},
	}
	g := &queryGen{rng: rand.New(rand.NewSource(b.p.seed + 3)), data: data}

	b.queryLoop(o, g, shape, b.timed())
	b.endTimed()
	b.verify(o, &queryGen{rng: rand.New(rand.NewSource(b.p.seed + 7)), data: data}, shape, markers, 300)
	for lo := 0; lo+batchLen <= len(data); lo += batchLen {
		b.replay = append(b.replay, data[lo:lo+batchLen])
	}
	return nil
}

// queryLoop is the closed-loop query client: whole rounds of the same
// mix, 4 range, 4 aggregate and 2 recurring-window queries, each checked
// exactly, until d has passed.
func (b *bench) queryLoop(o *oracle, g *queryGen, shape queryShape, d time.Duration) {
	c := b.conns[0]
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		for k := 4 * i; k < 4*i+4; k++ {
			q := shape.rangeQuery(g, k)
			b.loopQuery(c, "range", q, func(ts []waterwheel.Tuple) error { return checkExact(ts, q, o) })
		}
		for k := 4 * i; k < 4*i+4; k++ {
			b.loopAggregate(c, "agg", shape.aggQuery(g, k), o)
		}
		for k := 2 * i; k < 2*i+2; k++ {
			q := shape.recurQuery(g, k)
			b.loopQuery(c, "recur", q, func(ts []waterwheel.Tuple) error { return checkExact(ts, q, o) })
		}
	}
}

// loopQuery is one query of the closed-loop client; its time also goes to
// the client's samples for queries_per_s.
func (b *bench) loopQuery(c *waterwheel.Client, kind string, q waterwheel.Query, check func([]waterwheel.Tuple) error) {
	s := b.samples(kind)
	n := s.len()
	b.query(c, kind, q, check)
	if s.len() > n {
		b.samples("loop").add(s.last())
	}
}

func (b *bench) loopAggregate(c *waterwheel.Client, kind string, q waterwheel.AggregateQuery, o *oracle) {
	s := b.samples(kind)
	n := s.len()
	b.aggregate(c, kind, q, o)
	if s.len() > n {
		b.samples("loop").add(s.last())
	}
}
