package main

import (
	"sort"

	"repro/internal/obs"
)

// Benchmark-side span names. The client span runs from a request's due
// time to its answer; loadgen.wait is the part before it was sent and
// client.rt the round trip the client saw.
const (
	hopClient   = "client"
	hopLoadgen  = "loadgen.wait"
	hopClientRT = "client.rt"
)

// Ledger layers: every instant of a traced request is attributed to
// exactly one of these, so they sum to the request's end-to-end time.
const (
	layerUnattributed = "unattributed"
	layerLoadgen      = "loadgen"
	layerEdge         = "edge"
	layerFrontend     = "frontend"
	layerProbe        = "vcache.probe"
	layerServe        = "vcache.serve"
	layerDispatch     = "stub.dispatch"
	layerQueue        = "stub.worker_queue"
	layerDistiller    = "distiller"
	layerTransport    = "transport"
)

var ledgerLayers = []string{layerLoadgen, layerEdge, layerFrontend, layerProbe, layerServe,
	layerDispatch, layerQueue, layerDistiller, layerTransport, layerUnattributed}

// layerOf maps a span name to its ledger layer. The client round trip
// outside the front end's root span is the edge's proxy time when the
// request came through the edge, and unattributed otherwise.
func layerOf(hop string, viaEdge bool) string {
	switch hop {
	case hopLoadgen:
		return layerLoadgen
	case hopClientRT:
		if viaEdge {
			return layerEdge
		}
	case obs.RootHop, "fe.admit":
		return layerFrontend
	case "fe.cache":
		return layerProbe
	case "cache.serve":
		return layerServe
	case "dispatch":
		return layerDispatch
	case "worker.queue":
		return layerQueue
	case "worker.service":
		return layerDistiller
	case "transport.flush":
		return layerTransport
	}
	return layerUnattributed
}

// ispan is a span as an interval of unix nanoseconds.
type ispan struct {
	hop        string
	start, end int64
	depth      int
}

// selfTimes attributes every instant of the root span — the one that
// starts first and, among those, lasts longest — to the deepest span
// covering it, and returns the time each hop owns. A span's parent is
// the innermost open span when it starts; a child is clipped to its
// parent, so the results sum to the root's duration exactly. Where
// siblings overlap, the one that started later owns the overlap.
func selfTimes(spans []ispan) map[string]int64 {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].end > spans[j].end
	})
	var kept, stack []ispan
	for _, s := range spans {
		for len(stack) > 0 && stack[len(stack)-1].end <= s.start {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 && len(kept) > 0 {
			continue // outside the root
		}
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			if s.end > p.end {
				s.end = p.end
			}
			s.depth = p.depth + 1
		}
		if s.end <= s.start {
			continue
		}
		kept = append(kept, s)
		stack = append(stack, s)
	}
	out := make(map[string]int64)
	if len(kept) == 0 {
		return out
	}
	cuts := make([]int64, 0, 2*len(kept))
	for _, s := range kept {
		cuts = append(cuts, s.start, s.end)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if a == b {
			continue
		}
		owner := -1
		for k, s := range kept {
			if s.start > a || s.end < b {
				continue
			}
			if owner < 0 || s.depth > kept[owner].depth ||
				(s.depth == kept[owner].depth && s.start >= kept[owner].start) {
				owner = k
			}
		}
		if owner >= 0 {
			out[kept[owner].hop] += b - a
		}
	}
	return out
}

// ledgerEntry is one traced request broken down by layer.
type ledgerEntry struct {
	e2e    int64            // due time to answer, ns
	layers map[string]int64 // layer -> ns; sums to e2e
	spans  []obs.Span       // the program's spans for the request
}

// joinRequest builds the ledger entry of one traced request from the
// benchmark's client spans and the program's spans for its trace id.
// It reports false when the front end's root span is missing (the
// tracer's ring dropped it).
func joinRequest(r tracedReq, progSpans []obs.Span, viaEdge bool) (ledgerEntry, bool) {
	spans := []ispan{
		{hop: hopClient, start: r.due.UnixNano(), end: r.recv.UnixNano()},
		{hop: hopLoadgen, start: r.due.UnixNano(), end: r.send.UnixNano()},
		{hop: hopClientRT, start: r.rtStart.UnixNano(), end: r.rtEnd.UnixNano()},
	}
	root := false
	for _, sp := range progSpans {
		if sp.Hop == obs.RootHop {
			root = true
		}
		spans = append(spans, ispan{hop: sp.Hop, start: sp.Start, end: sp.Start + sp.Dur})
	}
	if !root {
		return ledgerEntry{}, false
	}
	e := ledgerEntry{e2e: r.recv.UnixNano() - r.due.UnixNano(), layers: make(map[string]int64), spans: progSpans}
	for hop, ns := range selfTimes(spans) {
		e.layers[layerOf(hop, viaEdge)] += ns
	}
	return e, true
}

// dedupeSpans merges span lists from several processes' tracers: a
// span ingested from a peer's digest appears in both.
func dedupeSpans(lists ...[]obs.Span) []obs.Span {
	seen := make(map[obs.Span]bool)
	var out []obs.Span
	for _, l := range lists {
		for _, sp := range l {
			if !seen[sp] {
				seen[sp] = true
				out = append(out, sp)
			}
		}
	}
	return out
}
