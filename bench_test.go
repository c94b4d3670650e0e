package repro

// One benchmark per reproduced table/figure (DESIGN.md §3), plus the
// ablations. Each bench exercises the same code path the experiment
// harness (cmd/experiments) uses, at bench-friendly sizes; custom
// metrics report the paper-comparable quantities (slopes, capacities,
// hit rates) alongside ns/op.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/distiller"
	"repro/internal/manager"
	"repro/internal/media"
	"repro/internal/san"
	"repro/internal/search"
	"repro/internal/snsim"
	"repro/internal/stub"
	"repro/internal/tacc"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/vcache"
)

// BenchmarkFig5SizeSampling measures the Figure 5 content model and
// reports the sampled means for comparison with the paper's captions.
func BenchmarkFig5SizeSampling(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	model := trace.NewContentModel()
	var gifSum, gifN float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mime, size := model.Sample(rng)
		if mime == media.MIMESGIF {
			gifSum += float64(size)
			gifN++
		}
	}
	if gifN > 0 {
		b.ReportMetric(gifSum/gifN, "gif-mean-bytes")
	}
}

// BenchmarkFig6Arrivals generates one hour of the bursty arrival
// process per iteration.
func BenchmarkFig6Arrivals(b *testing.B) {
	model := trace.DefaultArrivals(1)
	rng := rand.New(rand.NewSource(1))
	var events int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events += len(model.Generate(rng, 12*time.Hour, 13*time.Hour))
	}
	b.ReportMetric(float64(events)/float64(b.N), "arrivals/hour")
}

// BenchmarkFig7DistillerLatency measures the real SGIF distiller on
// ~10 KB inputs and reports the per-KB cost (the paper's Figure 7
// slope, hardware-scaled).
func BenchmarkFig7DistillerLatency(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := media.GenerateContent(rng, media.MIMESGIF, 10*1024)
	w := distiller.SGIFDistiller{}
	task := &tacc.Task{Input: tacc.Blob{MIME: media.MIMESGIF, Data: data}}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Process(context.Background(), task); err != nil {
			b.Fatal(err)
		}
	}
	perKB := float64(b.Elapsed().Microseconds()) / 1000 / float64(b.N) / (float64(len(data)) / 1024)
	b.ReportMetric(perKB, "ms/KB")
}

// BenchmarkFig8SelfTuning runs the full 400-virtual-second Figure 8
// scenario per iteration.
func BenchmarkFig8SelfTuning(b *testing.B) {
	var spawns int
	for i := 0; i < b.N; i++ {
		res := snsim.RunFigure8(int64(i + 1))
		spawns += len(res.Spawns)
	}
	b.ReportMetric(float64(spawns)/float64(b.N), "spawns/run")
}

// BenchmarkTable2Scalability runs the full Table 2 sweep per
// iteration and reports the derived per-distiller capacity.
func BenchmarkTable2Scalability(b *testing.B) {
	var cap float64
	for i := 0; i < b.N; i++ {
		res := snsim.RunTable2(int64(i + 1))
		cap = res.PerDistillerReqS
	}
	b.ReportMetric(cap, "req/s-per-distiller")
}

// BenchmarkCachePartition measures the live cache partition's
// get/put path (the Harvest stand-in of §4.4).
func BenchmarkCachePartition(b *testing.B) {
	p := vcache.NewPartition(64<<20, nil)
	data := make([]byte, 8192)
	for i := 0; i < 1000; i++ {
		p.Put(fmt.Sprintf("warm%d", i), data, "b", 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("warm%d", i%1000)
		if _, ok := p.Get(key); !ok {
			b.Fatal("miss on warm key")
		}
	}
}

// BenchmarkCacheServiceModel reproduces the §4.4 service-time numbers.
func BenchmarkCacheServiceModel(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		res := snsim.RunCacheService(int64(i + 1))
		mean = res.MeanHitMs
	}
	b.ReportMetric(mean, "hit-ms")
}

// BenchmarkCacheHitRateCurve simulates one LRU point (scaled down)
// and reports the hit rate.
func BenchmarkCacheHitRateCurve(b *testing.B) {
	var hit float64
	for i := 0; i < b.N; i++ {
		res := snsim.RunCacheCurve(snsim.CacheCurveParams{
			Seed:       int64(i + 1),
			Users:      800,
			ReqPerUser: 100,
			Universe:   200000,
			CacheBytes: 1 << 30,
		})
		hit = res.HitRate
	}
	b.ReportMetric(hit, "hit-rate")
}

// nullWorker backs the control-plane benches.
type nullWorker struct{}

func (nullWorker) Class() string { return "null" }
func (nullWorker) Process(ctx context.Context, task *tacc.Task) (tacc.Blob, error) {
	return task.Input, nil
}

// BenchmarkManagerAnnouncements measures the manager's load-report
// ingestion rate — the §4.6 capacity experiment's inner loop. The
// paper needs 1800/s; report the sustained rate.
func BenchmarkManagerAnnouncements(b *testing.B) {
	net := san.NewNetwork(1, stub.WireCodec{})
	m := manager.New(manager.Config{
		Node: "mgr", Net: net,
		BeaconInterval: time.Hour, // isolate report handling
		WorkerTTL:      time.Hour,
		Policy:         manager.Policy{SpawnThreshold: 1e18, Damping: time.Hour, ReapThreshold: -1},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go m.Run(ctx)
	wep := net.Endpoint(san.Addr{Node: "w", Proc: "w0"}, 1<<16)
	wep.Send(m.Addr(), stub.MsgRegister, stub.RegisterMsg{Info: stub.WorkerInfo{
		ID: "w0", Class: "null", Addr: wep.Addr(), Node: "w"}})
	deadline := time.Now().Add(2 * time.Second)
	for m.Stats().Workers == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	report := stub.LoadReport{ID: "w0", Class: "null", QLen: 3}
	b.ResetTimer()
	sent := 0
	for i := 0; i < b.N; i++ {
		// Pace against the manager's consumption so the bounded
		// inbox does not silently drop reports.
		for sent-int(m.Stats().ReportsHandled) > 2048 {
			time.Sleep(50 * time.Microsecond)
		}
		if wep.Send(m.Addr(), stub.MsgLoadReport, report) == nil {
			sent++
		}
	}
	drain := time.Now().Add(10 * time.Second)
	for int(m.Stats().ReportsHandled) < sent && time.Now().Before(drain) {
		time.Sleep(time.Millisecond)
	}
	b.ReportMetric(float64(sent)/b.Elapsed().Seconds(), "announcements/s")
}

// BenchmarkOscillationAblation runs the §4.5 ablation pair and
// reports the spread ratio (raw / fixed — higher means the estimator
// helps more).
func BenchmarkOscillationAblation(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		raw := snsim.RunOscillation(int64(i+1), false)
		fixed := snsim.RunOscillation(int64(i+1), true)
		if fixed.Spread > 0 {
			ratio = raw.Spread / fixed.Spread
		}
	}
	b.ReportMetric(ratio, "spread-ratio")
}

// BenchmarkSANSaturation runs the §4.6 saturated-SAN scenario and
// reports the beacon loss rate.
func BenchmarkSANSaturation(b *testing.B) {
	var loss float64
	for i := 0; i < b.N; i++ {
		res := snsim.RunSANSaturation(int64(i+1), 10, false)
		loss = res.BeaconLossRate
	}
	b.ReportMetric(loss, "beacon-loss")
}

// BenchmarkFaultRecovery boots a live system once and measures a full
// worker-crash -> timeout-detection -> respawn cycle per iteration
// (§3.1.3's process-peer loop).
func BenchmarkFaultRecovery(b *testing.B) {
	registry := tacc.NewRegistry()
	registry.Register("null", func() tacc.Worker { return nullWorker{} })
	sys, err := core.Start(core.Config{
		Seed:           1,
		DedicatedNodes: 4,
		FrontEnds:      1,
		CacheParts:     1,
		Workers:        map[string]int{"null": 1},
		Registry:       registry,
		BeaconInterval: 10 * time.Millisecond,
		ReportInterval: 10 * time.Millisecond,
		Policy:         manager.Policy{SpawnThreshold: 1e9, Damping: time.Hour, ReapThreshold: -1},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Stop()
	if !sys.WaitReady(10 * time.Second) {
		b.Fatal("system did not come up")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Pick a worker that is actually alive (the front end's
		// cached table can briefly list the previous victim).
		var victim string
		deadline := time.Now().Add(10 * time.Second)
		for victim == "" && time.Now().Before(deadline) {
			for _, id := range sys.Workers() {
				victim = id
				break
			}
			if victim == "" {
				time.Sleep(time.Millisecond)
			}
		}
		if victim == "" {
			b.Fatal("no worker to kill")
		}
		spawnsBefore := sys.Manager().Stats().Spawns
		if err := sys.Kill(victim); err != nil {
			b.Fatal(err)
		}
		deadline = time.Now().Add(10 * time.Second)
		for sys.Manager().Stats().Spawns == spawnsBefore && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
}

// BenchmarkChaosKillRestartCycle boots one system through the chaos
// harness and measures a full scripted kill -> timeout-inference ->
// respawn -> steady-state cycle per iteration (the §4.3 recovery
// latency as a tracked number).
func BenchmarkChaosKillRestartCycle(b *testing.B) {
	h, err := chaos.New(chaos.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Stop()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spawnsBefore := h.Sys.Manager().Stats().Spawns
		sched := chaos.Schedule{Seed: 1, Events: []chaos.Event{{Kind: chaos.KillWorker, Slot: i}}}
		h.Execute(ctx, sched)
		deadline := time.Now().Add(10 * time.Second)
		for h.Sys.Manager().Stats().Spawns == spawnsBefore {
			if time.Now().After(deadline) {
				b.Fatal("no respawn within 10s")
			}
			time.Sleep(time.Millisecond)
		}
		if !h.AwaitSteady(10 * time.Second) {
			b.Fatal("system did not recover")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "recovery-ms")
}

// --- Wire-path benchmarks -------------------------------------------------
//
// SAN sends and multicasts through the production codec, over bodies
// from the nil control signal up to a full beacon.

// benchSANSendParallel is the shared body of the send benchmarks: many
// concurrent sender/receiver pairs, 1% loss to keep the rng hot,
// mirroring san.BenchmarkSANSendParallel's traffic shape.
func benchSANSendParallel(b *testing.B, net *san.Network, kind string, body any) {
	net.SetLoss(0.01, 0)
	var next atomic.Int64
	b.SetBytes(1024)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := fmt.Sprint(next.Add(1))
		src := net.Endpoint(san.Addr{Node: "senders", Proc: id}, 8)
		dst := net.Endpoint(san.Addr{Node: "sinks", Proc: id}, 4096)
		go func() {
			for range dst.Inbox() {
			}
		}()
		for pb.Next() {
			if err := src.Send(dst.Addr(), kind, body); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSANSendParallelWire sends bodiless messages: the SAN's own
// per-send cost, with the codec bypassed for nil bodies.
func BenchmarkSANSendParallelWire(b *testing.B) {
	benchSANSendParallel(b, san.NewNetwork(1, stub.WireCodec{}), "d", nil)
}

// BenchmarkSANSendParallelWireSpawnReq puts the smallest real
// control-plane body on the wire path (encode + per-delivery decode).
func BenchmarkSANSendParallelWireSpawnReq(b *testing.B) {
	benchSANSendParallel(b, san.NewNetwork(1, stub.WireCodec{}),
		stub.MsgSpawnReq, stub.SpawnReq{Class: "echo"})
}

// wireLoadReport is the heavier data-plane shape for the load-report
// send pair.
func wireLoadReport() stub.LoadReport {
	info := stub.WorkerInfo{
		ID: "w0", Class: "echo",
		Addr: san.Addr{Node: "n1", Proc: "w0"}, Node: "n1", QLen: 2.5,
	}
	return stub.LoadReport{
		ID: "w0", Class: "echo", QLen: 10, CostMs: 3.75,
		Done: 100, Errors: 2, Crashes: 1, Info: info,
	}
}

// BenchmarkSANSendParallelWireLoadReport measures the realistic worst
// case of the periodic control plane: a full load report per send.
func BenchmarkSANSendParallelWireLoadReport(b *testing.B) {
	net := san.NewNetwork(1, stub.WireCodec{})
	net.SetLoss(0.01, 0)
	report := wireLoadReport()
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := fmt.Sprint(next.Add(1))
		src := net.Endpoint(san.Addr{Node: "senders", Proc: id}, 8)
		dst := net.Endpoint(san.Addr{Node: "sinks", Proc: id}, 4096)
		go func() {
			for range dst.Inbox() {
			}
		}()
		for pb.Next() {
			if err := src.Send(dst.Addr(), stub.MsgLoadReport, report); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSANMulticastBeaconWire: the encode-once fanout over a
// 16-member group with a beacon-shaped body — the manager's actual
// fanout.
func BenchmarkSANMulticastBeaconWire(b *testing.B) {
	net := san.NewNetwork(1, stub.WireCodec{})
	const members = 16
	workers := []stub.WorkerInfo{wireLoadReport().Info}
	beacon := stub.Beacon{Manager: san.Addr{Node: "mgr", Proc: "manager"}, Seq: 1, Workers: workers}
	for i := 0; i < members; i++ {
		ep := net.Endpoint(san.Addr{Node: "m", Proc: fmt.Sprintf("p%d", i)}, 4096)
		ep.Join("grp")
		go func() {
			for range ep.Inbox() {
			}
		}()
	}
	src := net.Endpoint(san.Addr{Node: "senders", Proc: "src"}, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Multicast("grp", stub.MsgBeacon, beacon)
	}
	if st := net.Stats(); st.WireEncodes != uint64(b.N) {
		b.Fatalf("encode-once violated: %d encodes for %d multicasts", st.WireEncodes, b.N)
	}
}

// BenchmarkHotBotQuery measures fan-out query latency over a deployed
// partitioned index (§3.2).
func BenchmarkHotBotQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	docs := search.GenerateCorpus(rng, 10000, 2000)
	net := san.NewNetwork(1, search.WireCodec{})
	cl := cluster.New(net)
	for i := 0; i < 8; i++ {
		cl.AddNode(fmt.Sprintf("n%d", i), false)
	}
	engine, err := search.Deploy(search.Config{
		Net: net, Cluster: cl, Partitions: 8, Seed: 1, CacheSize: 1,
	}, docs)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.StopAll()
	queries := []string{"ba de", "ka ne", "be ro", "du bi"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Distinct-ish queries defeat the result cache (capacity 1).
		q := queries[i%len(queries)]
		res := engine.Query(context.Background(), q, 10)
		if res.ShardsAlive != 8 {
			b.Fatalf("shards alive = %d", res.ShardsAlive)
		}
	}
}

// BenchmarkEconomics evaluates the §5.2 cost model.
func BenchmarkEconomics(b *testing.B) {
	var cost float64
	for i := 0; i < b.N; i++ {
		cost = snsim.RunEconomics(23).CostPerUserMonth
	}
	b.ReportMetric(cost, "$/user/month")
}

// BenchmarkEndToEndRequest measures a whole-request path on the live
// system (cache-warm distilled hits).
func BenchmarkEndToEndRequest(b *testing.B) {
	registry := tacc.NewRegistry()
	distiller.RegisterAll(registry)
	sys, err := core.Start(core.Config{
		Seed:           1,
		DedicatedNodes: 6,
		FrontEnds:      1,
		CacheParts:     2,
		Workers:        map[string]int{distiller.ClassSJPG: 2},
		Registry:       registry,
		Rules:          distiller.TranSendRules(),
		Policy:         manager.Policy{SpawnThreshold: 1e9, Damping: time.Hour, ReapThreshold: -1},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Stop()
	if !sys.WaitReady(10 * time.Second) {
		b.Fatal("system did not come up")
	}
	ctx := context.Background()
	url := trace.ObjectURL(42, media.MIMESJPG)
	if _, err := sys.Request(ctx, url, "u"); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Request(ctx, url, "u"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Transport benchmarks -------------------------------------------------
//
// The socket layer's cost structure: frame encode/decode as pure CPU
// (frame encode must stay 0 allocs/op — gated in the bench snapshot),
// and the bridged send pair with batching on vs off, where the delta
// is the syscall amortization the batching writer buys.

// BenchmarkFrameEncodeData appends a data frame carrying a real
// encoded load report into a warm buffer — the bridge's send path.
func BenchmarkFrameEncodeData(b *testing.B) {
	body, err := stub.EncodeBody(stub.MsgLoadReport, wireLoadReport())
	if err != nil {
		b.Fatal(err)
	}
	from := san.Addr{Node: "a-node0", Proc: "fe0"}
	to := san.Addr{Node: "b-node1", Proc: "w0"}
	buf := transport.AppendData(nil, from, to, stub.MsgLoadReport, 1, false, body)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = transport.AppendData(buf[:0], from, to, stub.MsgLoadReport, 1, false, body)
	}
}

// BenchmarkFrameDecodeData runs the streaming decoder over the same
// frame — the bridge's receive path before SAN injection.
func BenchmarkFrameDecodeData(b *testing.B) {
	body, err := stub.EncodeBody(stub.MsgLoadReport, wireLoadReport())
	if err != nil {
		b.Fatal(err)
	}
	frame := transport.AppendData(nil,
		san.Addr{Node: "a-node0", Proc: "fe0"},
		san.Addr{Node: "b-node1", Proc: "w0"},
		stub.MsgLoadReport, 1, false, body)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	var dec transport.Decoder
	for i := 0; i < b.N; i++ {
		if _, err := dec.Write(frame); err != nil {
			b.Fatal(err)
		}
		if _, ok, err := dec.Next(); err != nil || !ok {
			b.Fatalf("decode: ok=%v err=%v", ok, err)
		}
	}
}

// benchBridgeSend measures one-way sends across two bridged networks
// over loopback TCP, batched (default microsecond-deadline writer) or
// unbatched (every frame its own write syscall). The sender keeps at
// most bridgeSendWindow frames in flight: one that outruns the socket
// fills the peer's write queue, and the transport then refuses sends
// (backpressure) instead of buffering them.
func benchBridgeSend(b *testing.B, batched bool) {
	netA := san.NewNetwork(1, stub.WireCodec{})
	netB := san.NewNetwork(2, stub.WireCodec{})
	delay := time.Duration(0) // transport default (batched)
	if !batched {
		delay = -1 // flush every frame
	}
	ba, err := transport.New(transport.Config{Net: netA, Listen: "tcp:127.0.0.1:0", ID: "bench-a", FlushDelay: delay})
	if err != nil {
		b.Fatal(err)
	}
	defer ba.Close()
	bb, err := transport.New(transport.Config{Net: netB, Listen: "tcp:127.0.0.1:0", ID: "bench-b", FlushDelay: delay, Join: []string{ba.Advertise()}})
	if err != nil {
		b.Fatal(err)
	}
	defer bb.Close()
	if !ba.WaitPeers(1, 5*time.Second) {
		b.Fatal("bridges never connected")
	}
	src := netA.Endpoint(san.Addr{Node: "a-n0", Proc: "src"}, 8)
	dst := netB.Endpoint(san.Addr{Node: "b-n0", Proc: "dst"}, 1<<16)
	var recv atomic.Int64
	go func() {
		for msg := range dst.Inbox() {
			msg.Release()
			recv.Add(1)
		}
	}()
	// Teach A a route for dst: routes are learned from the source
	// address of RECEIVED frames, so dst must send something back
	// once; after that the benchmark loop is routed, not flooded.
	report := wireLoadReport()
	if err := dst.Send(src.Addr(), stub.MsgLoadReport, report); err != nil {
		b.Fatal(err)
	}
	for range src.Inbox() {
		break // route learned when the frame arrives
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := awaitSendWindow(int64(i), &recv); err != nil {
			b.Fatal(err)
		}
		if err := src.Send(dst.Addr(), stub.MsgLoadReport, report); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := ba.Stats()
	if st.Batches > 0 {
		b.ReportMetric(float64(st.FramesOut)/float64(st.Batches), "frames/batch")
	}
	netA.Close()
	netB.Close()
}

// bridgeSendWindow bounds benchBridgeSend's frames in flight, far
// below the transport's DefaultMaxBatchBytes of load-report frames.
const bridgeSendWindow = 1024

// awaitSendWindow blocks until fewer than bridgeSendWindow of the sent
// frames are still unreceived, and fails if the receiver makes no
// progress for five seconds.
func awaitSendWindow(sent int64, recv *atomic.Int64) error {
	for start := time.Now(); sent-recv.Load() >= bridgeSendWindow; runtime.Gosched() {
		if time.Since(start) > 5*time.Second {
			return fmt.Errorf("receiver stalled with %d frames in flight", sent-recv.Load())
		}
	}
	return nil
}

// BenchmarkBridgeSendBatched / Unbatched is the coalescing A/B: the
// same wire traffic with the batching writer on vs one syscall per
// frame.
func BenchmarkBridgeSendBatched(b *testing.B)   { benchBridgeSend(b, true) }
func BenchmarkBridgeSendUnbatched(b *testing.B) { benchBridgeSend(b, false) }
