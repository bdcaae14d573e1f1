package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"waterwheel"
	"waterwheel/internal/chunk"
	"waterwheel/internal/core"
	"waterwheel/internal/dfs"
	"waterwheel/internal/dispatcher"
	"waterwheel/internal/meta"
	"waterwheel/internal/model"
	"waterwheel/internal/telemetry"
	"waterwheel/internal/transport"
	"waterwheel/internal/wal"
)

// spanAgg sums self time per span name over the traced queries. A span's
// self time is its duration minus the part of it its children cover.
type spanAgg struct {
	mu         sync.Mutex
	self       map[string]time.Duration
	queries    int
	net        time.Duration // client-observed time minus the root span
	subqueries int
}

func newSpanAgg() *spanAgg { return &spanAgg{self: map[string]time.Duration{}} }

func (a *spanAgg) add(tr *waterwheel.QueryTrace, observed time.Duration, subqueries int) {
	if tr == nil || tr.Root == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.queries++
	a.subqueries += subqueries
	a.net += observed - tr.Root.Dur
	addSelf(tr.Root, a.self)
}

func addSelf(s *telemetry.Span, into map[string]time.Duration) {
	end := s.Start.Add(s.Dur)
	type iv struct{ lo, hi time.Time }
	ivs := make([]iv, 0, len(s.Children))
	for _, c := range s.Children {
		lo, hi := c.Start, c.Start.Add(c.Dur)
		if lo.Before(s.Start) {
			lo = s.Start
		}
		if hi.After(end) {
			hi = end
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
		addSelf(c, into)
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo.After(cur.hi):
			covered += cur.hi.Sub(cur.lo)
			cur = v
		case v.hi.After(cur.hi):
			cur.hi = v.hi
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi.Sub(cur.lo)
	}
	into[s.Name] += s.Dur - covered
}

// perLayer computes every per-layer metric of the traced run: telemetry
// deltas across the telemetry window, span self times, and the replay of
// the run's batches through each write-path layer.
func (b *bench) perLayer(rp replayResult) map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{Value: v, Unit: unit}
	}
	delta := func(name string) float64 { return b.telEnd[name].Value - b.telStart[name].Value }
	hist := func(name string) (count float64, sum time.Duration) {
		e, s := b.telEnd[name].Histogram, b.telStart[name].Histogram
		if e == nil || s == nil {
			return 0, 0
		}
		return float64(e.Count - s.Count), e.Sum - s.Sum
	}
	per := func(v, n float64) float64 {
		if n == 0 {
			return 0
		}
		return v / n
	}
	// Marker polls read memtables only; per-query chunk and DFS figures
	// count the range, aggregate and recurring queries.
	queries := delta("waterwheel_queries_total") + delta("waterwheel_agg_queries_total") - float64(b.windowPolls)
	aggs := delta("waterwheel_agg_queries_total")
	recurs := float64(b.samples("recur").len() + b.samples("vrecur").len())

	// net
	put("net.insert_codec_ns_per_tuple", "ns", rp.codecNsPerTuple)
	put("net.frame_us_per_request", "us", rp.frameUs)
	sp := b.spans
	traced := float64(sp.queries)
	put("net.query_us", "us", per(us(sp.net), traced))
	// dispatcher
	put("dispatcher.ns_per_tuple", "ns", rp.dispatchNsPerTuple)
	put("dispatcher.imbalance", "ratio", b.telEnd["waterwheel_partition_imbalance"].Value)
	// wal
	put("wal.append_ns_per_tuple", "ns", rp.walNsPerTuple)
	put("wal.backlog_max_records", "records", b.backlog)
	// ingest: the insert histogram samples every consumer insert batch that
	// crosses a multiple of 64 tuples, so a sampled batch stands for at
	// least 64 tuples and for all of its own when larger.
	n, sum := hist("waterwheel_ingest_insert_seconds")
	tuples := delta("waterwheel_ingest_tuples_total")
	put("ingest.insert_ns_per_tuple", "ns", per(float64(sum), n*math.Max(64, per(tuples, n))))
	put("ingest.flushes", "count", delta("waterwheel_ingest_flushes_total"))
	put("ingest.flush_failures", "count", delta("waterwheel_ingest_flush_failures_total"))
	n, sum = hist("waterwheel_ingest_flush_seconds")
	put("ingest.flush_ms", "ms", per(ms(sum), n))
	_, sum = hist("waterwheel_ingest_backpressure_seconds")
	put("ingest.backpressure_ms", "ms", ms(sum))
	put("ingest.side_routed", "count", delta("waterwheel_ingest_side_routed_total"))
	// Marker polls are the queries that read memtables: range and
	// recurring queries run after the barrier has flushed them.
	put("ingest.mem_subquery_us", "us", per(us(b.pollSpans.self["mem_subquery"]), float64(b.pollSpans.queries)))
	// core
	put("core.insert_ns_per_tuple", "ns", rp.coreNsPerTuple)
	put("core.template_updates", "count", delta("waterwheel_template_updates_total"))
	put("core.memtable_bytes_per_tuple", "B", per(b.memBytes, b.memTuples))
	// chunk
	put("chunk.build_ms", "ms/chunk", rp.buildMs)
	put("chunk.open_us", "us", per(us(sp.self["chunk_open"]), traced))
	put("chunk.leaf_read_us", "us", per(us(sp.self["leaf_read"]), traced))
	put("chunk.scan_us", "us", per(us(sp.self["scan"]), traced))
	leaves := delta("waterwheel_chunk_leaves_read_total")
	put("chunk.leaves_read_per_query", "count", per(leaves, queries))
	put("chunk.leaves_bloom_skipped_per_query", "count", per(delta("waterwheel_chunk_leaves_bloom_skipped_total"), queries))
	put("chunk.tuples_per_leaf_read", "ratio", per(float64(b.tupleOut), leaves))
	put("chunk.agg_pushdown_leaves_per_query", "count", per(delta("waterwheel_agg_pushdown_leaves_total"), aggs))
	put("chunk.agg_scanned_leaves_per_query", "count", per(delta("waterwheel_agg_scanned_leaves_total"), aggs))
	// dfs
	put("dfs.write_ms", "ms/chunk", rp.writeMs)
	put("dfs.reads_per_query", "count", per(delta("waterwheel_dfs_reads_total"), queries))
	put("dfs.read_bytes_per_query", "B", per(delta("waterwheel_dfs_read_bytes_total"), queries))
	// meta
	put("meta.register_us", "us", rp.registerUs)
	put("meta.tier_pruned_chunks_per_query", "count", per(delta("waterwheel_tier_pruned_chunks_total"), recurs))
	put("meta.agg_meta_chunks_per_query", "count", per(delta("waterwheel_agg_meta_chunks_total"), aggs))
	// queryexec
	put("queryexec.decompose_us", "us", per(us(sp.self["decompose"]), traced))
	put("queryexec.dispatch_us", "us", per(us(sp.self["dispatch"]), traced))
	put("queryexec.chunk_subquery_us", "us", per(us(sp.self["chunk_subquery"]), traced))
	put("queryexec.merge_us", "us", per(us(sp.self["merge"]), traced))
	put("queryexec.subqueries_per_query", "count", per(float64(sp.subqueries), traced))
	put("queryexec.redispatches", "count", delta("waterwheel_query_redispatches_total"))
	// lru
	var hits, misses, evictions float64
	for _, unit := range []string{"header", "leaf"} {
		hits += delta(fmt.Sprintf("waterwheel_cache_hits_total{unit=%q}", unit))
		misses += delta(fmt.Sprintf("waterwheel_cache_misses_total{unit=%q}", unit))
		evictions += delta(fmt.Sprintf("waterwheel_cache_evictions_total{unit=%q}", unit))
	}
	put("lru.hit_ratio", "ratio", per(hits, hits+misses))
	put("lru.evictions", "count", evictions)
	// The replayed write path, summed per tuple: the single-threaded
	// baseline of the same job.
	put("replay.ns_per_tuple", "ns", rp.sumNsPerTuple())
	return m
}

// replayResult holds the single-threaded replay's per-layer costs.
type replayResult struct {
	tuples                                             int
	codecNsPerTuple, dispatchNsPerTuple, walNsPerTuple float64
	coreNsPerTuple                                     float64
	frameUs                                            float64
	chunks                                             int
	runs                                               int // per-server runs the dispatcher produced
	buildMs, writeMs, registerUs                       float64
	tuplesPerChunk                                     float64
}

// sumNsPerTuple adds up the replayed layers per tuple, the chunk-level
// costs spread over the tuples of a chunk.
func (r replayResult) sumNsPerTuple() float64 {
	s := r.codecNsPerTuple + r.dispatchNsPerTuple + r.walNsPerTuple + r.coreNsPerTuple
	if r.tuplesPerChunk > 0 {
		s += (r.buildMs*1e6 + r.writeMs*1e6 + r.registerUs*1e3) / r.tuplesPerChunk
	}
	return s
}

// frameCalls bounds the empty-handler round trips the frame replay times.
const frameCalls = 2000

// replayWritePath replays the run's own batches single-threaded through
// each write-path layer's public functions, timing every call: the wire
// codec, a transport round trip of a run-sized frame to a handler that
// does nothing, Dispatcher.DispatchBatch into a capturing sink, WAL
// AppendBatch on an on-disk partition, TemplateTree.InsertBatch with
// FlushReset at the chunk threshold, chunk.Build, the DFS write and
// metadata registration.
func (b *bench) replayWritePath(chunkBytes int64) (replayResult, error) {
	var rp replayResult
	dir := filepath.Join(b.p.root, fmt.Sprintf("replay-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return rp, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return rp, err
	}
	defer os.RemoveAll(dir)

	batches := make([][]model.Tuple, len(b.replay))
	for i, recs := range b.replay {
		ts := make([]model.Tuple, len(recs))
		for j := range recs {
			ts[j] = recs[j].tuple(0)
		}
		batches[i] = ts
		rp.tuples += len(ts)
	}
	if rp.tuples == 0 {
		return rp, nil
	}

	// Wire codec.
	var buf []byte
	var codec time.Duration
	for _, ts := range batches {
		start := time.Now()
		buf = model.AppendTuples(buf[:0], ts)
		if _, err := model.DecodeTuples(buf); err != nil {
			return rp, fmt.Errorf("replay codec: %w", err)
		}
		codec += time.Since(start)
	}
	rp.codecNsPerTuple = float64(codec) / float64(rp.tuples)

	// Transport frame round trips.
	srv := transport.NewServer()
	srv.Handle("nop", func([]byte) ([]byte, error) { return nil, nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return rp, fmt.Errorf("replay transport: %w", err)
	}
	cl, err := transport.Dial(addr)
	if err != nil {
		srv.Close()
		return rp, fmt.Errorf("replay transport: %w", err)
	}
	calls := min(frameCalls, len(batches))
	var frames time.Duration
	for i := 0; i < calls; i++ {
		buf = model.AppendTuples(buf[:0], batches[i])
		start := time.Now()
		_, err := cl.Call("nop", buf)
		frames += time.Since(start)
		if err != nil {
			cl.Close()
			srv.Close()
			return rp, fmt.Errorf("replay transport: %w", err)
		}
	}
	cl.Close()
	srv.Close()
	rp.frameUs = us(frames) / float64(calls)

	// Dispatch, capturing the per-server runs.
	schema := b.db.Cluster().Metadata().Schema()
	nServers := schema.Servers
	runs := make([][][]model.Tuple, nServers)
	sink := capture{runs: runs}
	d := dispatcher.New(schema, &sink, dispatcher.SamplerConfig{Seed: b.p.seed})
	var disp time.Duration
	for _, ts := range batches {
		start := time.Now()
		if _, err := d.DispatchBatch(ts); err != nil {
			return rp, fmt.Errorf("replay dispatch: %w", err)
		}
		disp += time.Since(start)
	}
	rp.dispatchNsPerTuple = float64(disp) / float64(rp.tuples)
	for _, sruns := range sink.runs {
		rp.runs += len(sruns)
	}

	// WAL appends, one on-disk partition per server.
	var walTime time.Duration
	for s, sruns := range sink.runs {
		p, err := wal.OpenPartition(filepath.Join(dir, fmt.Sprintf("wal-%d", s)), wal.Config{})
		if err != nil {
			return rp, fmt.Errorf("replay wal: %w", err)
		}
		for _, run := range sruns {
			datas := make([][]byte, len(run))
			enc := make([]byte, 0, len(run)*(model.EncodedSize(&run[0])+8))
			for i := range run {
				pos := len(enc)
				enc = model.AppendTuple(enc, &run[i])
				datas[i] = enc[pos:len(enc):len(enc)]
			}
			start := time.Now()
			_, err := p.AppendBatch(datas)
			walTime += time.Since(start)
			if err != nil {
				p.CloseFile()
				return rp, fmt.Errorf("replay wal: %w", err)
			}
		}
		if err := p.CloseFile(); err != nil {
			return rp, fmt.Errorf("replay wal: %w", err)
		}
	}
	rp.walNsPerTuple = float64(walTime) / float64(rp.tuples)

	// Tree inserts, flushed at the chunk threshold into chunk.Build, the
	// DFS write and the metadata registration.
	fs, err := dfs.Open(dfs.Config{Nodes: 1, Replication: 1, Dir: filepath.Join(dir, "dfs")})
	if err != nil {
		return rp, fmt.Errorf("replay dfs: %w", err)
	}
	mserv := meta.NewServer(nServers)
	var coreTime, buildTime, writeTime, regTime time.Duration
	var chunkTuples int
	flush := func(s int, snap *core.FlushSnapshot) error {
		start := time.Now()
		data, cm, err := chunk.Build(snap, chunk.BuildOptions{})
		buildTime += time.Since(start)
		if err != nil {
			return fmt.Errorf("replay chunk build: %w", err)
		}
		path := fmt.Sprintf("chunks/replay-%d-%d", s, rp.chunks)
		start = time.Now()
		err = fs.Write(path, data)
		writeTime += time.Since(start)
		if err != nil {
			return fmt.Errorf("replay dfs write: %w", err)
		}
		info := meta.ChunkInfo{
			Path:      path,
			Region:    model.Region{Keys: cm.Keys, Times: model.TimeRange{Lo: cm.MinTime, Hi: cm.MaxTime}},
			Count:     cm.Count,
			Size:      cm.Size,
			HeaderLen: cm.HeaderLen,
			Server:    s,
			Format:    cm.Format,
			Agg:       cm.Agg,
		}
		start = time.Now()
		mserv.RegisterChunks([]meta.ChunkInfo{info})
		regTime += time.Since(start)
		rp.chunks++
		chunkTuples += cm.Count
		return nil
	}
	for s, sruns := range sink.runs {
		tree := core.NewTemplateTree(core.TemplateConfig{Keys: schema.IntervalOf(s)})
		for _, run := range sruns {
			start := time.Now()
			tree.InsertBatch(run)
			var snap *core.FlushSnapshot
			if tree.Bytes() >= chunkBytes {
				snap = tree.FlushReset()
			}
			coreTime += time.Since(start)
			if snap != nil {
				if err := flush(s, snap); err != nil {
					return rp, err
				}
			}
		}
		if rp.chunks == 0 && s == len(sink.runs)-1 {
			// No run filled a chunk: build the last memtable so the chunk
			// layers still get a measurement.
			if snap := tree.FlushReset(); snap != nil {
				if err := flush(s, snap); err != nil {
					return rp, err
				}
			}
		}
	}
	rp.coreNsPerTuple = float64(coreTime) / float64(rp.tuples)
	if rp.chunks > 0 {
		rp.buildMs = ms(buildTime) / float64(rp.chunks)
		rp.writeMs = ms(writeTime) / float64(rp.chunks)
		rp.registerUs = us(regTime) / float64(rp.chunks)
		rp.tuplesPerChunk = float64(chunkTuples) / float64(rp.chunks)
	}
	return rp, nil
}

// capture is the replay's dispatcher sink: it keeps each server's runs.
type capture struct{ runs [][][]model.Tuple }

func (c *capture) Send(server int, t model.Tuple) error {
	c.runs[server] = append(c.runs[server], []model.Tuple{t})
	return nil
}

func (c *capture) SendBatch(server int, ts []model.Tuple) (int, error) {
	c.runs[server] = append(c.runs[server], ts)
	return len(ts), nil
}
