package main

import "strings"

// corePrefixes are the micro-protocols whose handlers get their own
// per-layer figures; a handler belongs to the prefix before the dot in its
// registration name.
var corePrefixes = []string{"TotalOrder", "SynchronousCall", "AsynchronousCall",
	"Acceptance", "Collation", "RPCMain", "ReliableComm", "UniqueExec"}

// perLayer computes the per-layer metrics of traced window w; base is the
// untraced window the overhead is measured against. A layer that does not
// run on the workload reads 0.
func perLayer(w, base window, tr *tracer) ([]metric, error) {
	per := func(x float64) float64 { return w.perCall(x) }
	us := func(ns int64) float64 { return per(float64(ns) / 1e3) }

	byName, spans := tr.byName()
	var handlers layerAgg
	byPrefix := make(map[string]layerAgg)
	for name, a := range byName {
		if isFixedSpan(name) {
			continue
		}
		handlers.n += a.n
		handlers.selfNs += a.selfNs
		p, _, _ := strings.Cut(name, ".")
		b := byPrefix[p]
		b.n += a.n
		b.selfNs += a.selfNs
		byPrefix[p] = b
	}
	fixed := func(id int32) layerAgg { return byName[fixedSpans[id].name] }

	ms := []metric{
		{"event.handlers_per_call", "count", per(float64(handlers.n))},
		{"event.handler_us_per_call", "us", us(handlers.selfNs)},
	}
	for _, p := range corePrefixes {
		a := byPrefix[p]
		ms = append(ms,
			metric{"core." + p + ".us_per_call", "us", us(a.selfNs)},
			metric{"core." + p + ".invocations_per_call", "count", per(float64(a.n))})
	}

	var msgsPerBatch float64
	if b := tr.batches.Load(); b > 0 {
		msgsPerBatch = float64(tr.batchedMsgs.Load()) / float64(b)
	}
	enc, dec, err := tr.codecNs()
	if err != nil {
		return nil, err
	}
	ms = append(ms,
		metric{"flush.batches_per_call", "count", per(float64(w.net.Batches))},
		metric{"flush.msgs_per_batch", "count", msgsPerBatch},
		metric{"dissem.relays_per_call", "count", per(float64(tr.relays.Load()))},
		metric{"dissem.origin_egress_per_call", "count", per(float64(w.egress))},
		metric{"reliable.retrans_per_call", "count", per(float64(tr.retrans.Load()))},
		metric{"unique.dups_dropped_per_call", "count", per(float64(tr.dups.Load()))},
		metric{"total.order_frames_per_call", "count", per(float64(tr.orderMsgs.Load()))},
		metric{"msg.encode_ns_per_frame", "ns", enc},
		metric{"msg.decode_ns_per_frame", "ns", dec},
		metric{"msg.wire_bytes_per_call", "B", per(float64(tr.wireBytes.Load()))},
		metric{"transport.send_us_per_call", "us", us(fixed(idSend).selfNs)},
		metric{"transport.deliver_us_per_call", "us", us(fixed(idDeliver).selfNs)},
		metric{"transport.delivered_per_call", "count", per(float64(w.net.Delivered))},
		metric{"transport.dropped_per_call", "count", per(float64(w.net.Dropped))},
		metric{"app.execs_per_call", "count", per(float64(fixed(idApp).n))},
		metric{"app.exec_us_per_call", "us", us(fixed(idApp).selfNs)},
		metric{"stub.marshal_ns_per_call", "ns", per(float64(fixed(idStub).selfNs))},
		metric{"runtime.gc_cycles_per_kcall", "count", per(1000 * float64(w.gcCycles))},
		metric{"runtime.gc_pause_us_per_call", "us", us(w.gcPause.Nanoseconds())},
		metric{"trace.spans_per_call", "count", per(float64(spans))},
		metric{"trace.calls_per_s_change_pct", "%", pctChange(rate(base), rate(w))},
		metric{"trace.cpu_us_per_call_change_pct", "%", pctChange(base.perCall(float64(base.cpu)), w.perCall(float64(w.cpu)))},
	)
	return ms, nil
}

func isFixedSpan(name string) bool {
	for _, f := range fixedSpans {
		if f.name == name {
			return true
		}
	}
	return false
}

func rate(w window) float64 { return float64(w.calls-w.failed) / w.seconds }

// pctChange is the change from a to b in percent of a.
func pctChange(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b/a - 1) * 100
}
