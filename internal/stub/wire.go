// Package stub implements the narrow interface between service-
// specific workers and the SNS layer (paper §2.2.5): the worker stub,
// which hides queueing, load reporting, fault isolation and discovery
// from worker code; and the manager stub, linked into front ends,
// which caches load-balancing state from manager beacons, dispatches
// tasks by lottery, and carries the process-peer duties (restart a
// silent manager).
package stub

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/san"
	"repro/internal/supervisor"
	"repro/internal/tacc"
	"repro/internal/vcache"
)

// Multicast groups. Components discover each other exclusively through
// these — the paper's "use of IP multicast provides a level of
// indirection and relieves components of having to explicitly locate
// each other" (§3.1.2).
const (
	GroupControl = "sns.control" // manager beacons, registration traffic
	GroupReports = "sns.reports" // monitor state reports
)

// Message kinds.
const (
	MsgBeacon     = "mgr.beacon"   // manager -> group: Beacon
	MsgRegister   = "wrk.register" // worker -> manager: RegisterMsg
	MsgDeregister = "wrk.dereg"    // worker -> manager: DeregisterMsg
	MsgLoadReport = "wrk.load"     // worker -> manager: LoadReport
	MsgTask       = "wrk.task"     // front end -> worker: TaskMsg
	MsgResult     = "wrk.result"   // worker -> front end (reply): ResultMsg
	MsgFEHello    = "fe.heartbeat" // front end -> manager: FEHeartbeat
	MsgSpawnReq   = "mgr.spawnreq" // front end -> manager: SpawnReq
	MsgShutdown   = "ctl.shutdown" // manager -> worker: graceful reap
	MsgDisable    = "ctl.disable"  // monitor -> component: hot upgrade
	MsgEnable     = "ctl.enable"   // monitor -> component
	MsgMonReport  = "mon.report"   // component -> reports group: StatusReport
	MsgSpanDigest = "obs.spans"    // span reporter -> reports group: SpanDigest
)

// WorkerInfo describes one live worker as carried in beacons.
type WorkerInfo struct {
	ID    string
	Class string
	Addr  san.Addr
	Node  string
	// QLen is the manager's weighted moving average of the worker's
	// reported queue length.
	QLen float64
	// Overflow marks workers running on overflow-pool nodes.
	Overflow bool
}

// Beacon is the manager's periodic multicast: its own address (for
// registration and spawn requests) plus the load-balancing hints the
// front ends cache (§2.2.2). Epoch is the election generation: every
// takeover bumps it, and listeners ignore beacons from epochs older
// than the newest they have seen, so a deposed primary cannot drag
// followers back. Floors carries the per-class replica floors so a
// standby that wins an election adopts the primary's spawn duties
// exactly — like everything else here, soft state rebuilt from one
// beacon interval (§3.1.3).
type Beacon struct {
	Manager san.Addr
	Seq     uint64
	Epoch   uint64
	Workers []WorkerInfo
	Floors  map[string]int
}

// RegisterMsg announces a worker to the manager.
type RegisterMsg struct {
	Info WorkerInfo
}

// DeregisterMsg removes a worker (clean shutdown).
type DeregisterMsg struct {
	ID string
}

// LoadReport carries one worker's queue length to the manager. The
// paper characterizes distiller load "in terms of the queue length at
// the distiller, optionally weighted by the expected cost of
// distilling each item".
type LoadReport struct {
	ID      string
	Class   string
	QLen    int
	CostMs  float64 // average per-task cost observed, milliseconds
	Done    uint64  // tasks completed since start
	Errors  uint64
	Crashes uint64
	// Info lets the manager re-admit a worker it expired (e.g. after
	// a healed SAN partition): soft state regenerates from the very
	// next periodic message, no explicit rejoin protocol needed.
	Info WorkerInfo
}

// TaskMsg asks a worker to run one task. Deadline, when non-zero, is
// the absolute wall-clock instant (unix nanoseconds) after which the
// caller no longer awaits the result; it rides inside the body so it
// crosses process boundaries through the wire codec, and workers drop
// expired tasks from their inboxes instead of running them. Trace
// mirrors the same dual-carriage pattern for the tracing id
// (obs.TraceID bits): the SAN stamps Message.Trace on deliveries, and
// the body copy covers consumers that re-queue the task beyond the
// original message.
type TaskMsg struct {
	Task     tacc.Task
	Deadline int64
	Trace    uint64
}

// ResultMsg answers a TaskMsg.
type ResultMsg struct {
	Blob tacc.Blob
	Err  string // empty on success
}

// FEHeartbeat tells the manager a front end is alive (process-peer
// input for "the manager detects and restarts a crashed front end").
// HTTPAddr, when non-empty, is the host:port of the front end's HTTP
// adapter — the address an edge proxy routes client requests to.
// Draining marks a front end that has been disabled for a hot upgrade:
// still alive (heartbeats keep flowing so the manager does not restart
// it) but asking the edge to stop sending it new requests. Both fields
// ride an optional tail on the wire so pre-extension frames decode with
// zero values.
type FEHeartbeat struct {
	Name     string
	Addr     san.Addr
	Node     string
	HTTPAddr string
	Draining bool
}

// SpawnReq asks the manager to start a worker of a class the front end
// found no instances of.
type SpawnReq struct {
	Class string
}

// StatusReport is the monitor's food: any component multicasts these
// on GroupReports.
type StatusReport struct {
	Component string // process name
	Kind      string // "worker", "frontend", "manager", "cache"
	Node      string
	Metrics   map[string]float64
}

// SpanDigest batches freshly recorded trace spans for the report
// group: each process's span reporter multicasts one every report
// interval, and every process ingests its peers' digests, so any
// node can answer /trace?id= for the whole cluster (and the monitor
// folds the same stream into its per-hop latency table).
type SpanDigest struct {
	Spans []obs.Span
}

// Timing defaults shared across the SNS layer. The paper beacons every
// few seconds; tests compress time via Config knobs.
const (
	DefaultBeaconInterval = 500 * time.Millisecond
	DefaultReportInterval = 500 * time.Millisecond
	DefaultWorkerTTL      = 5 * DefaultReportInterval
	DefaultCallTimeout    = 2 * time.Second
)

// ---------------------------------------------------------------------------
// Wire codec.
//
// EncodeBody/DecodeBody define the production wire format for every
// SNS message — the stub control plane, the task/result data plane,
// and the vcache cache protocol: a compact, deterministic binary
// encoding (strings and byte slices are uvarint-length-prefixed, maps
// are emitted in sorted key order so equal values encode to equal
// bytes, floats are IEEE-754 bits). DecodeBody is total: malformed
// input yields an error, never a panic or an unbounded allocation —
// the property the FuzzWireRoundTrip fuzzer hammers on. A san.Network
// built with WireCodec{} runs this codec on its live message path;
// EncodeBodyAppend is the append entry point that path uses, and
// control signals without a body layout (MsgShutdown, MsgDisable, MsgEnable, vcache.MsgOK,
// vcache.MsgStats) encode a nil body as empty bytes.

// ErrWireFormat reports a malformed or truncated wire message.
var ErrWireFormat = errors.New("stub: malformed wire message")

// WireCodec adapts the package codec to san.Codec, so a network built
// with san.NewNetwork(seed, stub.WireCodec{}) serializes every SNS
// message — control plane, data plane, and the cache protocol —
// through the production encoding.
type WireCodec struct{}

// AppendBody implements san.Codec.
func (WireCodec) AppendBody(dst []byte, kind string, body any) ([]byte, error) {
	return EncodeBodyAppend(dst, kind, body)
}

// DecodeBodyView implements san.Codec: []byte fields of the result
// (blob data, cache values) alias data directly instead of copying,
// reported by aliased=true. Strings are always copied (Go string
// conversion), so only the bulk payload bytes share memory with the
// input. With aliased=true the result is valid only while data's
// buffer is — the san layer pairs it with a Lease. Kinds without
// byte-slice fields return aliased=false and are identical to
// DecodeBody.
func (WireCodec) DecodeBodyView(kind string, data []byte) (any, bool, error) {
	return decodeBody(kind, data, true)
}

// EncodeBody serializes a message body for the given kind. Kinds
// without a registered body layout (control signals like MsgShutdown)
// encode a nil body as empty bytes.
func EncodeBody(kind string, body any) ([]byte, error) {
	return EncodeBodyAppend(nil, kind, body)
}

// EncodeBodyAppend serializes a message body for the given kind into
// dst (which may be nil or a recycled buffer; its existing contents
// are preserved) and returns the extended slice — the zero-alloc
// variant the SAN's pooled wire path uses.
func EncodeBodyAppend(dst []byte, kind string, body any) ([]byte, error) {
	w := &wireWriter{buf: dst}
	switch kind {
	case MsgBeacon:
		b, ok := body.(Beacon)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants Beacon, got %T", ErrWireFormat, kind, body)
		}
		w.addr(b.Manager)
		w.u64(b.Seq)
		w.u64(b.Epoch)
		w.uvarint(uint64(len(b.Workers)))
		for _, wi := range b.Workers {
			w.workerInfo(wi)
		}
		w.intMap(b.Floors)
	case MsgRegister:
		m, ok := body.(RegisterMsg)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants RegisterMsg, got %T", ErrWireFormat, kind, body)
		}
		w.workerInfo(m.Info)
	case MsgDeregister:
		m, ok := body.(DeregisterMsg)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants DeregisterMsg, got %T", ErrWireFormat, kind, body)
		}
		w.str(m.ID)
	case MsgLoadReport:
		m, ok := body.(LoadReport)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants LoadReport, got %T", ErrWireFormat, kind, body)
		}
		w.str(m.ID)
		w.str(m.Class)
		w.varint(int64(m.QLen))
		w.f64(m.CostMs)
		w.u64(m.Done)
		w.u64(m.Errors)
		w.u64(m.Crashes)
		w.workerInfo(m.Info)
	case MsgTask:
		m, ok := body.(TaskMsg)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants TaskMsg, got %T", ErrWireFormat, kind, body)
		}
		w.str(m.Task.Key)
		w.blob(m.Task.Input)
		w.uvarint(uint64(len(m.Task.Inputs)))
		for _, b := range m.Task.Inputs {
			w.blob(b)
		}
		w.strMap(m.Task.Profile)
		w.strMap(m.Task.Params)
		w.varint(m.Deadline)
		w.uvarint(m.Trace)
	case MsgResult:
		m, ok := body.(ResultMsg)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants ResultMsg, got %T", ErrWireFormat, kind, body)
		}
		w.blob(m.Blob)
		w.str(m.Err)
	case MsgFEHello:
		m, ok := body.(FEHeartbeat)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants FEHeartbeat, got %T", ErrWireFormat, kind, body)
		}
		w.str(m.Name)
		w.addr(m.Addr)
		w.str(m.Node)
		w.str(m.HTTPAddr)
		w.bool(m.Draining)
	case MsgSpawnReq:
		m, ok := body.(SpawnReq)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants SpawnReq, got %T", ErrWireFormat, kind, body)
		}
		w.str(m.Class)
	case MsgMonReport:
		m, ok := body.(StatusReport)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants StatusReport, got %T", ErrWireFormat, kind, body)
		}
		w.str(m.Component)
		w.str(m.Kind)
		w.str(m.Node)
		w.f64Map(m.Metrics)
	case MsgSpanDigest:
		m, ok := body.(SpanDigest)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants SpanDigest, got %T", ErrWireFormat, kind, body)
		}
		w.uvarint(uint64(len(m.Spans)))
		for _, sp := range m.Spans {
			w.uvarint(uint64(sp.Trace))
			w.str(sp.Proc)
			w.str(sp.Comp)
			w.str(sp.Hop)
			w.str(sp.Note)
			w.varint(sp.Start)
			w.varint(sp.Dur)
		}
	case vcache.MsgGet:
		m, ok := body.(vcache.GetReq)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants vcache.GetReq, got %T", ErrWireFormat, kind, body)
		}
		w.str(m.Key)
		w.bool(m.Stale)
	case vcache.MsgHello:
		m, ok := body.(vcache.HelloMsg)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants vcache.HelloMsg, got %T", ErrWireFormat, kind, body)
		}
		w.str(m.Name)
		w.addr(m.Addr)
		w.str(m.Node)
	case vcache.MsgGot:
		m, ok := body.(vcache.GetResp)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants vcache.GetResp, got %T", ErrWireFormat, kind, body)
		}
		w.bool(m.Found)
		w.bytes(m.Data)
		w.str(m.MIME)
		w.bool(m.Stale)
	case vcache.MsgPut, vcache.MsgInject:
		m, ok := body.(vcache.PutReq)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants vcache.PutReq, got %T", ErrWireFormat, kind, body)
		}
		w.str(m.Key)
		w.bytes(m.Data)
		w.str(m.MIME)
		w.varint(int64(m.TTL))
	case vcache.MsgStatsR:
		m, ok := body.(vcache.Stats)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants vcache.Stats, got %T", ErrWireFormat, kind, body)
		}
		w.u64(m.Hits)
		w.u64(m.Misses)
		w.u64(m.Puts)
		w.u64(m.Injects)
		w.u64(m.Evictions)
		w.u64(m.Expired)
		w.varint(m.Used)
		w.varint(int64(m.Objects))
	case supervisor.MsgHello:
		m, ok := body.(supervisor.HelloMsg)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants supervisor.HelloMsg, got %T", ErrWireFormat, kind, body)
		}
		w.str(m.Name)
		w.addr(m.Addr)
		w.str(m.Node)
		w.str(m.Prefix)
	case supervisor.MsgCmd:
		m, ok := body.(supervisor.Command)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants supervisor.Command, got %T", ErrWireFormat, kind, body)
		}
		w.u64(m.ID)
		w.str(m.Origin)
		w.str(m.Op)
		w.str(m.Target)
		w.u64(m.Epoch)
	case supervisor.MsgAck:
		m, ok := body.(supervisor.Ack)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants supervisor.Ack, got %T", ErrWireFormat, kind, body)
		}
		w.u64(m.ID)
		w.bool(m.OK)
		w.str(m.Err)
	default:
		if body != nil {
			return nil, fmt.Errorf("%w: kind %q carries no body layout", ErrWireFormat, kind)
		}
	}
	return w.buf, nil
}

// DecodeBody parses a message body for the given kind. The returned
// value has the same concrete type EncodeBody accepts for that kind
// and shares no memory with data.
func DecodeBody(kind string, data []byte) (any, error) {
	body, _, err := decodeBody(kind, data, false)
	return body, err
}

func decodeBody(kind string, data []byte, view bool) (any, bool, error) {
	r := &wireReader{buf: data, view: view}
	var body any
	switch kind {
	case MsgBeacon:
		var b Beacon
		b.Manager = r.addr()
		b.Seq = r.u64()
		b.Epoch = r.u64()
		n := r.sliceLen(wireMinWorkerInfo)
		if n > 0 {
			b.Workers = make([]WorkerInfo, 0, n)
			for i := 0; i < n; i++ {
				b.Workers = append(b.Workers, r.workerInfo())
			}
		}
		b.Floors = r.intMap()
		body = b
	case MsgRegister:
		body = RegisterMsg{Info: r.workerInfo()}
	case MsgDeregister:
		body = DeregisterMsg{ID: r.str()}
	case MsgLoadReport:
		var m LoadReport
		m.ID = r.str()
		m.Class = r.str()
		m.QLen = int(r.varint())
		m.CostMs = r.f64()
		m.Done = r.u64()
		m.Errors = r.u64()
		m.Crashes = r.u64()
		m.Info = r.workerInfo()
		body = m
	case MsgTask:
		var m TaskMsg
		m.Task.Key = r.str()
		m.Task.Input = r.blob()
		n := r.sliceLen(wireMinBlob)
		if n > 0 {
			m.Task.Inputs = make([]tacc.Blob, 0, n)
			for i := 0; i < n; i++ {
				m.Task.Inputs = append(m.Task.Inputs, r.blob())
			}
		}
		m.Task.Profile = r.strMap()
		m.Task.Params = r.strMap()
		m.Deadline = r.varint()
		m.Trace = r.uvarint()
		body = m
	case MsgResult:
		body = ResultMsg{Blob: r.blob(), Err: r.str()}
	case MsgFEHello:
		m := FEHeartbeat{Name: r.str(), Addr: r.addr(), Node: r.str()}
		// Optional tail: frames encoded before the HTTPAddr/Draining
		// extension end here and decode with zero values.
		if r.err == nil && r.pos < len(r.buf) {
			m.HTTPAddr = r.str()
			m.Draining = r.bool()
		}
		body = m
	case MsgSpawnReq:
		body = SpawnReq{Class: r.str()}
	case MsgMonReport:
		body = StatusReport{Component: r.str(), Kind: r.str(), Node: r.str(), Metrics: r.f64Map()}
	case MsgSpanDigest:
		var m SpanDigest
		n := r.sliceLen(wireMinSpan)
		if n > 0 {
			m.Spans = make([]obs.Span, 0, n)
			for i := 0; i < n; i++ {
				m.Spans = append(m.Spans, obs.Span{
					Trace: obs.TraceID(r.uvarint()),
					Proc:  r.str(),
					Comp:  r.str(),
					Hop:   r.str(),
					Note:  r.str(),
					Start: r.varint(),
					Dur:   r.varint(),
				})
			}
		}
		body = m
	case vcache.MsgGet:
		body = vcache.GetReq{Key: r.str(), Stale: r.bool()}
	case vcache.MsgHello:
		body = vcache.HelloMsg{Name: r.str(), Addr: r.addr(), Node: r.str()}
	case vcache.MsgGot:
		body = vcache.GetResp{Found: r.bool(), Data: r.bytes(), MIME: r.str(), Stale: r.bool()}
	case vcache.MsgPut, vcache.MsgInject:
		body = vcache.PutReq{Key: r.str(), Data: r.bytes(), MIME: r.str(), TTL: time.Duration(r.varint())}
	case vcache.MsgStatsR:
		body = vcache.Stats{
			Hits:      r.u64(),
			Misses:    r.u64(),
			Puts:      r.u64(),
			Injects:   r.u64(),
			Evictions: r.u64(),
			Expired:   r.u64(),
			Used:      r.varint(),
			Objects:   int(r.varint()),
		}
	case supervisor.MsgHello:
		body = supervisor.HelloMsg{Name: r.str(), Addr: r.addr(), Node: r.str(), Prefix: r.str()}
	case supervisor.MsgCmd:
		body = supervisor.Command{ID: r.u64(), Origin: r.str(), Op: r.str(), Target: r.str(), Epoch: r.u64()}
	case supervisor.MsgAck:
		body = supervisor.Ack{ID: r.u64(), OK: r.bool(), Err: r.str()}
	default:
		if len(data) != 0 {
			return nil, false, fmt.Errorf("%w: kind %q carries no body layout", ErrWireFormat, kind)
		}
		return nil, false, nil
	}
	if r.err != nil {
		return nil, false, r.err
	}
	if len(r.buf) != r.pos {
		return nil, false, fmt.Errorf("%w: %d trailing bytes", ErrWireFormat, len(r.buf)-r.pos)
	}
	return body, r.aliased, nil
}

// WireKinds lists every kind with a registered body layout, sorted —
// the fuzzer's kind table.
func WireKinds() []string {
	return []string{
		MsgBeacon, MsgDeregister, MsgFEHello, MsgLoadReport, MsgMonReport,
		MsgRegister, MsgResult, MsgSpawnReq, MsgSpanDigest, MsgTask,
		supervisor.MsgAck, supervisor.MsgCmd, supervisor.MsgHello,
		vcache.MsgGet, vcache.MsgGot, vcache.MsgHello, vcache.MsgInject, vcache.MsgPut, vcache.MsgStatsR,
	}
}

// Minimum encoded sizes, used to bound slice preallocation against
// attacker-controlled counts: a claimed N-element slice needs at
// least N*min bytes of remaining input.
const (
	wireMinWorkerInfo = 7 // 4 empty strings + f64 varint + bool + 2 more strings? conservative floor
	wireMinBlob       = 3 // empty MIME + empty data + empty meta
	wireMinSpan       = 7 // trace uvarint + 4 empty strings + 2 varints
)

type wireWriter struct{ buf []byte }

func (w *wireWriter) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *wireWriter) varint(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }
func (w *wireWriter) u64(v uint64)     { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *wireWriter) f64(v float64)    { w.u64(math.Float64bits(v)) }
func (w *wireWriter) bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.buf = append(w.buf, b)
}

func (w *wireWriter) bytes(b []byte) {
	w.uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

func (w *wireWriter) str(s string) { w.bytes([]byte(s)) }

func (w *wireWriter) addr(a san.Addr) {
	w.str(a.Node)
	w.str(a.Proc)
}

func (w *wireWriter) workerInfo(i WorkerInfo) {
	w.str(i.ID)
	w.str(i.Class)
	w.addr(i.Addr)
	w.str(i.Node)
	w.f64(i.QLen)
	w.bool(i.Overflow)
}

func (w *wireWriter) blob(b tacc.Blob) {
	w.str(b.MIME)
	w.bytes(b.Data)
	w.strMap(b.Meta)
}

// sortedKeys collects and sorts a map's keys, using the caller's
// stack-backed scratch array when it fits so typical small maps
// (profiles, metrics) sort without a heap allocation.
func sortedKeys[V any](m map[string]V, scratch *[8]string) []string {
	var keys []string
	if len(m) <= len(scratch) {
		keys = scratch[:0]
	} else {
		keys = make([]string, 0, len(m))
	}
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// strMap encodes a map in sorted key order: equal maps always yield
// equal bytes.
func (w *wireWriter) strMap(m map[string]string) {
	var scratch [8]string
	keys := sortedKeys(m, &scratch)
	w.uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.str(k)
		w.str(m[k])
	}
}

func (w *wireWriter) f64Map(m map[string]float64) {
	var scratch [8]string
	keys := sortedKeys(m, &scratch)
	w.uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.str(k)
		w.f64(m[k])
	}
}

func (w *wireWriter) intMap(m map[string]int) {
	var scratch [8]string
	keys := sortedKeys(m, &scratch)
	w.uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.str(k)
		w.varint(int64(m[k]))
	}
}

// wireReader parses with sticky errors: after the first failure every
// accessor returns zero values, so decode paths need no per-field
// error plumbing. In view mode (DecodeBodyView) bytes() returns
// subslices of buf instead of copies and records that it did, so the
// caller knows the result aliases the input.
type wireReader struct {
	buf     []byte
	pos     int
	err     error
	view    bool
	aliased bool
}

func (r *wireReader) fail() {
	if r.err == nil {
		r.err = ErrWireFormat
	}
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

func (r *wireReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

func (r *wireReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.pos+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v
}

func (r *wireReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *wireReader) bool() bool {
	if r.err != nil {
		return false
	}
	if r.pos >= len(r.buf) {
		r.fail()
		return false
	}
	b := r.buf[r.pos]
	r.pos++
	if b > 1 {
		r.fail()
		return false
	}
	return b == 1
}

func (r *wireReader) bytes() []byte {
	raw := r.raw()
	if len(raw) == 0 {
		return nil
	}
	if r.view {
		r.aliased = true
		// Capacity-capped so an append by the consumer reallocates
		// instead of scribbling over the rest of the receive buffer.
		return raw[:len(raw):len(raw)]
	}
	out := make([]byte, len(raw))
	copy(out, raw)
	return out
}

// raw reads a length-prefixed field as a subslice of the input — no
// copy, no aliased mark. Callers either copy it themselves (str: the
// string conversion is the copy) or wrap it via bytes().
func (r *wireReader) raw() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.pos) {
		r.fail()
		return nil
	}
	out := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return out
}

func (r *wireReader) str() string { return string(r.raw()) }

// sliceLen reads an element count and bounds it by the bytes left:
// each element needs at least min bytes, so a count the remaining
// input cannot possibly satisfy is rejected before any allocation.
func (r *wireReader) sliceLen(min int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64((len(r.buf)-r.pos)/min)+1 {
		r.fail()
		return 0
	}
	return int(n)
}

func (r *wireReader) addr() san.Addr {
	return san.Addr{Node: r.str(), Proc: r.str()}
}

func (r *wireReader) workerInfo() WorkerInfo {
	return WorkerInfo{
		ID:       r.str(),
		Class:    r.str(),
		Addr:     r.addr(),
		Node:     r.str(),
		QLen:     r.f64(),
		Overflow: r.bool(),
	}
}

func (r *wireReader) blob() tacc.Blob {
	return tacc.Blob{MIME: r.str(), Data: r.bytes(), Meta: r.strMap()}
}

func (r *wireReader) strMap() map[string]string {
	n := r.sliceLen(2)
	if n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := r.str()
		v := r.str()
		if r.err != nil {
			return nil
		}
		m[k] = v
	}
	return m
}

func (r *wireReader) intMap() map[string]int {
	n := r.sliceLen(2)
	if n == 0 {
		return nil
	}
	m := make(map[string]int, n)
	for i := 0; i < n; i++ {
		k := r.str()
		v := r.varint()
		if r.err != nil {
			return nil
		}
		m[k] = int(v)
	}
	return m
}

func (r *wireReader) f64Map() map[string]float64 {
	n := r.sliceLen(9)
	if n == 0 {
		return nil
	}
	m := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		k := r.str()
		v := r.f64()
		if r.err != nil {
			return nil
		}
		m[k] = v
	}
	return m
}
