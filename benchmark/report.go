package main

import (
	"sort"

	"lsvd/internal/workload"
)

// isIO says whether a recorded op counts as a user op: reads and
// writes do, Flush (a barrier, not a transfer) is timed apart.
func isIO(k workload.Kind) bool { return k == workload.OpRead || k == workload.OpWrite }

// window is the measured-phase window a record started in.
func (m *measured) window(r rec) int {
	return min(int(r.start/m.windowLen.Nanoseconds()), windows-1)
}

// windowOps is the op rate (1/s) of every window.
func (m *measured) windowOps() []float64 {
	per := make([]float64, windows)
	for _, r := range m.recs {
		if isIO(r.kind) {
			per[m.window(r)]++
		}
	}
	for i := range per {
		per[i] /= m.windowLen.Seconds()
	}
	return per
}

// windowed reports a per-window statistic as the median window with
// its quartiles.
func windowed(name, unit string, vals []float64, samples int) metric {
	q1, med, q3 := quartiles(vals)
	return metric{Name: name, Value: med, Unit: unit, Q1: q1, Q3: q3, N: samples, Refused: len(vals) == 0}
}

// latency reports the q-quantile of the ops selected by keep, per
// window and then across the windows in use. A window too small for
// the quantile is left out; if all are, the metric is refused.
func (m *measured) latency(name string, q float64, use func(window int) bool, keep func(workload.Kind) bool) metric {
	durs := make([][]int32, windows)
	n := 0
	for _, r := range m.recs {
		if w := m.window(r); keep(r.kind) && use(w) {
			durs[w] = append(durs[w], r.dur)
			n++
		}
	}
	var vals []float64
	for _, d := range durs {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		if v, ok := sortedQuantile(d, q); ok {
			vals = append(vals, v/1e3)
		}
	}
	return windowed(name, "us", vals, n)
}

func allWindows(int) bool { return true }

// endToEnd computes the metrics a user of the volume would see. Every
// one is defined, and not zero, on every workload.
func (m *measured) endToEnd() metricList {
	var l metricList
	l = append(l, windowed("setup_s", "s", m.setupS, len(m.setupS)))

	rates := m.windowOps()
	var ops float64
	for _, r := range rates {
		ops += r * m.windowLen.Seconds()
	}
	l = append(l, windowed("ops_per_s", "1/s", rates, int(ops)))
	// Latency is that of the workload's main op class. Over both
	// classes of a mix, the median would sit on the border between read
	// hits and write acks and jump from one to the other between runs.
	primary := workload.OpRead
	if m.w.writeShare > 0.5 {
		primary = workload.OpWrite
	}
	isPrimary := func(k workload.Kind) bool { return k == primary }
	l = append(l, m.latency("op_p50_us", 0.50, allWindows, isPrimary))
	l = append(l, m.latency("op_p95_us", 0.95, allWindows, isPrimary))

	// Backend traffic is counted from the start of the measured phase
	// through the Drain after it, against the user bytes of that phase.
	be := m.backend
	l.add("backend_bytes_per_user_byte", "ratio", ratio(float64(be.BytesPut+be.BytesGot), ops*float64(m.w.opBytes)))
	l.add("backend_ops_per_kop", "ratio", ratio(float64(be.Puts+be.Gets+be.GetRanges+be.Deletes), ops/1000))
	l.add("stored_bytes_per_live_byte", "ratio", ratio(m.storedMean, float64(m.liveBytes)))
	return l
}

// userMetrics splits the client-side view by op class. These are
// end-to-end in nature but defined only where the workload has that
// class of op (0 elsewhere), so they are reported with the per-layer
// metrics, from the untraced windows of the traced run.
func (m *measured) userMetrics() metricList {
	var l metricList
	untraced := func(w int) bool { return w%2 == 1 }
	is := func(k workload.Kind) func(workload.Kind) bool {
		return func(o workload.Kind) bool { return o == k }
	}
	var reads, writes float64 // over the whole phase
	perW := make([]float64, 0, windows/2)
	perR := make([]float64, 0, windows/2)
	cw, cr := make([]float64, windows), make([]float64, windows)
	for _, r := range m.recs {
		switch r.kind {
		case workload.OpWrite:
			writes++
			cw[m.window(r)]++
		case workload.OpRead:
			reads++
			cr[m.window(r)]++
		}
	}
	for w := 1; w < windows; w += 2 {
		perW = append(perW, cw[w]/m.windowLen.Seconds())
		perR = append(perR, cr[w]/m.windowLen.Seconds())
	}
	wi := windowed("user.write_iops", "1/s", perW, int(writes))
	l = append(l, wi)
	l.add("user.write_mbps", "MB/s", wi.Value*float64(m.w.opBytes)/1e6)
	l = append(l, m.latency("user.write_ack_p50_us", 0.50, untraced, is(workload.OpWrite)))
	l = append(l, m.latency("user.write_ack_p99_us", 0.99, untraced, is(workload.OpWrite)))
	l = append(l, windowed("user.read_iops", "1/s", perR, int(reads)))
	l = append(l, m.latency("user.read_p50_us", 0.50, untraced, is(workload.OpRead)))
	l = append(l, m.latency("user.read_p99_us", 0.99, untraced, is(workload.OpRead)))

	l.add("user.backend_gets_per_read", "ratio", ratio(float64(m.backend.Gets+m.backend.GetRanges), reads))
	// Dead bytes the backend still holds, against every byte that
	// has been overwritten: 0 = all reclaimed, 1 = none.
	l.add("user.backend_garbage_share", "ratio", ratio(float64(m.storedEnd-m.liveBytes), float64(m.written-m.liveBytes)))
	l.add("user.recover_ms", "ms", m.recoverS*1e3)
	return l
}
