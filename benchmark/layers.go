package main

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"time"

	"lsvd"
	"lsvd/internal/iomodel"
	"lsvd/internal/workload"
)

// metric is one reported number. Q1/Q3 are the quartiles over the
// measured windows where the metric is computed per window; N is the
// number of samples behind Value (windows, or ops for a percentile).
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	// Refused is set when the sample was too small to support the
	// statistic; Value is then 0.
	Refused bool `json:"refused,omitempty"`
}

type metricList []metric

func (l *metricList) add(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	*l = append(*l, metric{Name: name, Value: v, Unit: unit, Q1: v, Q3: v, N: 1})
}

// addQuantile reports a histogram percentile in units of ns/div.
func (l *metricList) addQuantile(name, unit string, h *hist, q, div float64) {
	v, ok := h.quantile(q)
	*l = append(*l, metric{Name: name, Value: v / div, Unit: unit, Q1: v / div, Q3: v / div, N: int(h.count()), Refused: !ok})
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// samplePeriod is how often the gauges (queue depths, dirty bytes,
// goroutines) are read during a traced measured phase.
const samplePeriod = 50 * time.Millisecond

// layerProbe collects the per-layer numbers of a traced run: Stats()
// deltas over the measured phase, sampled gauges, the wrappers'
// histograms and the ladder.
type layerProbe struct {
	r          *rig
	start, end []lsvd.Stats // per volume
	recovered  []lsvd.Stats
	ms0, ms1   runtime.MemStats
	tdev       *traceDev
	recoverMS  float64

	stopSampler                                                   chan struct{}
	sampled                                                       chan struct{}
	destageQMax, dirtyMax, inflightMax, pendingMax, goroutinesMax float64
}

func (p *layerProbe) stats() []lsvd.Stats {
	out := make([]lsvd.Stats, len(p.r.disks))
	for i, d := range p.r.disks {
		out[i] = d.Stats()
	}
	return out
}

func (p *layerProbe) begin() {
	p.start = p.stats()
	runtime.ReadMemStats(&p.ms0)
	p.r.store.resetGauges()
	p.stopSampler, p.sampled = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(p.sampled)
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-p.stopSampler:
				return
			case <-tick.C:
			}
			var q, dirty, inflight, pending float64
			for _, st := range p.stats() {
				q += float64(st.DestageQueued)
				dirty += float64(st.WriteCache.DirtyBytes)
				inflight += float64(st.Backend.InflightObjects)
				pending += float64(st.Backend.PendingBatch)
			}
			p.destageQMax = max(p.destageQMax, q)
			p.dirtyMax = max(p.dirtyMax, dirty)
			p.inflightMax = max(p.inflightMax, inflight)
			p.pendingMax = max(p.pendingMax, pending)
			p.goroutinesMax = max(p.goroutinesMax, float64(runtime.NumGoroutine()))
		}
	}()
}

func (p *layerProbe) stop() {
	close(p.stopSampler)
	<-p.sampled
	p.end = p.stats()
	runtime.ReadMemStats(&p.ms1)
	p.tdev = p.r.tdev
}

// afterRecovery notes what the reopened volumes say about their
// recovery.
func (p *layerProbe) afterRecovery() {
	p.recovered = p.stats()
	p.recoverMS = p.r.openMS
}

// flatten adds every numeric field of a Stats value to out under its
// dotted field path ("Backend.BytesPut"), so a counter is named once,
// where it is reported.
func flatten(v reflect.Value, prefix string, out map[string]float64) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if prefix != "" {
				name = prefix + "." + name
			}
			flatten(v.Field(i), name, out)
		}
	case reflect.Int, reflect.Int32, reflect.Int64:
		out[prefix] += float64(v.Int())
	case reflect.Uint32, reflect.Uint64:
		out[prefix] += float64(v.Uint())
	case reflect.Float64:
		out[prefix] += v.Float()
	}
}

// total sums the volumes' stats field by field.
func total(stats []lsvd.Stats) map[string]float64 {
	out := make(map[string]float64)
	for _, st := range stats {
		flatten(reflect.ValueOf(st), "", out)
	}
	return out
}

// metrics computes every per-layer metric. All of them are emitted on
// every workload; one that does not apply reads 0.
func (p *layerProbe) metrics(ctx context.Context, m *measured, ladderOps int) (metricList, error) {
	var l metricList
	r, w := p.r, p.r.w
	start, end, rec := total(p.start), total(p.end), total(p.recovered)
	delta := func(field string) float64 {
		if _, ok := end[field]; !ok {
			panic("benchmark: no Stats field " + field)
		}
		return end[field] - start[field]
	}
	count := func(name, field string) { l.add(name, "count", delta(field)) }

	onSecs := float64(windows/2) * m.windowLen.Seconds()
	var onOps, onFlushes, allOps float64
	for _, rc := range m.recs {
		on := (rc.start/m.windowLen.Nanoseconds())%2 == 0
		switch {
		case rc.kind == workload.OpFlush:
			if on {
				onFlushes++
			}
		default:
			allOps++
			if on {
				onOps++
			}
		}
	}

	// The seam histograms, merged over volumes.
	var writeNS, readNS, flushNS, nbdSelf, nbdReq hist
	var stalls, stalledNS float64
	for _, v := range r.vtr {
		writeNS.merge(&v.writeNS)
		readNS.merge(&v.readNS)
		flushNS.merge(&v.flushNS)
		nbdSelf.merge(&v.nbdSelfNS)
		nbdReq.merge(&v.nbdReqNS)
		stalls += float64(v.stalls.Load())
		stalledNS += float64(v.stalledNS.Load())
	}

	l.add("nbd.requests", "count", float64(nbdReq.count()))
	l.addQuantile("nbd.self_us_p50", "us", &nbdSelf, 0.50, 1e3)
	l.addQuantile("nbd.self_us_p99", "us", &nbdSelf, 0.99, 1e3)

	l.add("host.create_ms", "ms", r.createMS)
	l.add("host.open_ms", "ms", p.recoverMS)
	// Slab counts are arena-wide, so any one volume's view has them.
	arenaEvictions := float64(p.end[0].ReadCache.SlabEvictions - p.start[0].ReadCache.SlabEvictions)
	l.add("host.arena_evictions", "count", arenaEvictions)
	minView, minGrants, maxGrants, ckptStall := math.Inf(1), math.Inf(1), 0.0, 0.0
	for i, st := range p.end {
		minView = min(minView, ratio(float64(st.ReadCache.OwnedSlabs), float64(st.ReadCache.FairShareSlabs)))
		b0, b1 := p.start[i].Backend, st.Backend
		g := float64(b1.UploadGrants + b1.UploadBorrows - b0.UploadGrants - b0.UploadBorrows)
		minGrants, maxGrants = min(minGrants, g), max(maxGrants, g)
		ckptStall = max(ckptStall, float64(b1.LastCkptStallNanos)/1e3)
	}
	l.add("host.arena_min_view_share", "ratio", minView)
	l.add("host.gate_share_skew", "ratio", ratio(maxGrants, minGrants))

	l.addQuantile("core.write_us_p50", "us", &writeNS, 0.50, 1e3)
	l.addQuantile("core.write_us_p99", "us", &writeNS, 0.99, 1e3)
	l.addQuantile("core.read_us_p50", "us", &readNS, 0.50, 1e3)
	l.addQuantile("core.read_us_p99", "us", &readNS, 0.99, 1e3)
	l.addQuantile("core.flush_us_p50", "us", &flushNS, 0.50, 1e3)
	l.addQuantile("core.flush_us_p99", "us", &flushNS, 0.99, 1e3)
	l.add("core.write_stall_share", "ratio", ratio(stalledNS/1e9, onSecs*float64(len(r.clients))))
	l.add("core.write_stalls_per_s", "1/s", ratio(stalls, onSecs))
	count("core.ring_kicks", "RingKicks")
	count("core.ring_fences", "RingFences")
	l.add("core.destage_queued_max", "count", p.destageQMax)
	l.add("core.drain_ms", "ms", m.drainMS)
	wcHit, rcHit := delta("WriteCacheHitSectors"), delta("ReadCacheHitSectors")
	beRead, zero := delta("BackendReadSectors"), delta("ZeroFillSectors")
	readSectors := wcHit + rcHit + beRead + zero
	l.add("core.wc_hit_share", "ratio", ratio(wcHit, readSectors))
	l.add("core.rc_hit_share", "ratio", ratio(rcHit, readSectors))
	l.add("core.backend_read_share", "ratio", ratio(beRead, readSectors))
	l.add("core.zero_fill_share", "ratio", ratio(zero, readSectors))
	count("core.admissions_dropped", "AdmissionsDropped")

	l.add("writecache.records_per_group", "ratio", ratio(delta("WriteCache.GroupRecords"), delta("WriteCache.GroupBatches")))
	l.add("writecache.dev_writes_per_record", "ratio", ratio(delta("WriteCache.DevWrites"), delta("WriteCache.Appends")))
	count("writecache.reserve_waits", "WriteCache.ReserveWaits")
	l.add("writecache.dirty_bytes_max", "B", p.dirtyMax)
	count("writecache.evictions", "WriteCache.Evictions")
	count("writecache.checkpoints", "WriteCache.Checkpoints")

	l.add("extmap.extents_end", "count", end["Backend.MapExtents"])

	l.add("readcache.hit_ratio", "ratio", ratio(delta("ReadCache.Hits"), delta("ReadCache.Hits")+delta("ReadCache.Misses")))
	l.add("readcache.slab_evictions", "count", arenaEvictions)
	l.add("readcache.prefetch_hit_share", "ratio", ratio(delta("PrefetchHitSectors"), rcHit))
	count("readcache.inserts", "ReadCache.Inserts")

	appended, put := delta("Backend.BytesAppended"), delta("Backend.BytesPut")
	l.add("blockstore.bytes_put_per_appended", "ratio", ratio(put, appended))
	l.add("blockstore.coalesced_share", "ratio", ratio(delta("Backend.BytesCoalesced"), appended))
	l.add("blockstore.gc_copied_share", "ratio", ratio(delta("Backend.GCBytesCopied"), put))
	count("blockstore.gc_runs", "Backend.GCRuns")
	count("blockstore.gc_pace_waits", "Backend.GCPaceWaits")
	count("blockstore.gc_backoffs", "Backend.GCBackoffs")
	count("blockstore.gc_yields", "Backend.GCYields")
	l.add("blockstore.utilization_end", "ratio", ratio(end["Backend.LiveSectors"], end["Backend.DataSectors"]))
	count("blockstore.objects_deleted", "Backend.ObjectsDeleted")
	count("blockstore.seal_stalls", "Backend.SealStalls")
	l.add("blockstore.inflight_objects_max", "count", p.inflightMax)
	l.add("blockstore.pending_batch_max", "B", p.pendingMax)
	count("blockstore.checkpoints", "Backend.Checkpoints")
	l.add("blockstore.ckpt_stall_us", "us", ckptStall)
	count("blockstore.fetch_gets", "Backend.FetchGETs")
	count("blockstore.fetches_deduped", "Backend.FetchesDeduped")
	count("blockstore.runs_coalesced", "Backend.RunsCoalesced")
	count("blockstore.header_fetches", "Backend.HeaderFetches")
	l.add("blockstore.open_ms", "ms", rec["Backend.OpenNanos"]/1e6/float64(len(p.recovered)))
	l.add("blockstore.recovery_gets", "count", rec["Backend.RecoveryGETs"])
	l.add("blockstore.recovered_objects", "count", rec["Backend.RecoveredObjects"])

	count("iosched.upload_grants", "Backend.UploadGrants")
	count("iosched.upload_borrows", "Backend.UploadBorrows")
	count("iosched.upload_waits", "Backend.UploadWaits")

	st := r.store
	putMax, getMax, putBusy := st.gauges()
	l.add("objstore.puts", "count", float64(st.putNS.count()))
	l.add("objstore.put_bytes_mean", "B", ratio(float64(st.putBytesOn.Load()), float64(st.putNS.count())))
	l.addQuantile("objstore.put_ms_p50", "ms", &st.putNS, 0.50, 1e6)
	l.add("objstore.put_inflight_max", "count", float64(putMax))
	l.add("objstore.put_busy_share", "ratio", ratio(putBusy.Seconds(), onSecs))
	l.add("objstore.get_ranges", "count", float64(st.getNS.count()))
	l.add("objstore.get_bytes_mean", "B", ratio(float64(st.getBytesOn.Load()), float64(st.getNS.count())))
	l.addQuantile("objstore.get_ms_p50", "ms", &st.getNS, 0.50, 1e6)
	l.add("objstore.get_inflight_max", "count", float64(getMax))
	l.add("objstore.deletes", "count", float64(m.backend.Deletes))
	count("objstore.retries", "Backend.BackendRetries")

	d := p.tdev
	l.add("simdev.writes", "count", float64(d.writes.Load()))
	l.add("simdev.write_bytes_mean", "B", ratio(float64(d.writeBytes.Load()), float64(d.writes.Load())))
	l.add("simdev.reads", "count", float64(d.reads.Load()))
	l.add("simdev.flushes", "count", float64(d.flushes.Load()))
	l.add("simdev.flushes_per_user_flush", "ratio", ratio(float64(d.flushes.Load()), onFlushes))
	l.addQuantile("simdev.write_ns_p50", "ns", &d.writeNS, 0.50, 1)
	modelled := iomodel.ElapsedMeter(d.meter, len(r.clients))
	l.add("simdev.modelled_ms_per_kop", "ms", ratio(float64(modelled.Nanoseconds())/1e6, onOps/1000))

	l.add("proc.cpu_us_per_op", "us", ratio(m.cpuS*1e6, allOps))
	l.add("proc.alloc_bytes_per_op", "B", ratio(float64(p.ms1.TotalAlloc-p.ms0.TotalAlloc), allOps))
	l.add("proc.gc_pause_ms", "ms", float64(p.ms1.PauseTotalNs-p.ms0.PauseTotalNs)/1e6)
	l.add("proc.goroutines_max", "count", p.goroutinesMax)

	// Traced windows against the untraced ones between them.
	per := m.windowOps()
	var onRate, offRate []float64
	for i, n := range per {
		if i%2 == 0 {
			onRate = append(onRate, n)
		} else {
			offRate = append(offRate, n)
		}
	}
	_, onMed, _ := quartiles(onRate)
	_, offMed, _ := quartiles(offRate)
	l.add("trace.overhead_ratio", "ratio", ratio(onMed, offMed))

	l = append(l, m.userMetrics()...)

	ladder, err := runLadder(ctx, w, r.clients[0].ops, ladderOps)
	return append(l, ladder...), err
}
