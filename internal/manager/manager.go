// Package manager implements the SNS layer's centralized,
// fault-tolerant load-balancing manager (paper §2.2.2, §3.1.2): it
// collects load reports from worker stubs, synthesizes hints as
// weighted moving averages, piggybacks them on periodic multicast
// beacons, spawns additional workers when a class's average queue
// crosses the threshold H (damped by D seconds), recruits overflow
// nodes for bursts and reaps them afterwards (§2.2.3), and carries the
// process-peer duty of restarting crashed front ends.
//
// All manager state is soft (§3.1.3): workers re-register when they
// see beacons from a restarted manager, so there is no crash-recovery
// protocol at all — the BASE design that replaced the original
// process-pair prototype.
//
// # Replication, epochs, and standby mode
//
// The manager role is replicated: N Manager instances share the
// control group, but exactly one — the primary — beacons, runs policy
// sweeps, and delegates restarts. The rest run in standby mode: the
// full receive loop stays live (they mirror the worker inventory and
// replica floors from the primary's beacons and ingest the multicast
// front-end/cache/supervisor heartbeats directly), but every output is
// suppressed. Because all of that state is BASE soft state, a standby
// is always at most one beacon interval behind the primary, which is
// the whole failover story: there is no state transfer and no recovery
// protocol.
//
// Election is by heartbeat rank: when a standby hears no primary
// beacon for ElectionTimeout plus a rank-proportional stagger, it
// increments the election epoch, declares itself primary, and beacons
// immediately. Beacons carry the epoch; every listener (stubs,
// supervisors, rival managers) ignores beacons older than the newest
// epoch it has seen, and supervisors refuse commands stamped with a
// deposed epoch — so a primary that was partitioned rather than dead
// can never double-restart a component. Two simultaneous claims at the
// same epoch resolve by lowest address: the loser steps back to
// standby on the winner's next beacon.
package manager

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/san"
	"repro/internal/softstate"
	"repro/internal/stub"
	"repro/internal/supervisor"
	"repro/internal/vcache"
)

// Policy is the spawn/reap policy (§4.5). It is shared verbatim with
// the discrete-event model so both systems embody the same rules.
type Policy struct {
	// SpawnThreshold H: spawn when a class's average queue length
	// crosses it. "H maps to the greatest delay the user is willing
	// to tolerate when the system is under high load."
	SpawnThreshold float64
	// Damping D: after any spawn in a class, spawning is disabled
	// for this long so the new worker can stabilize the system.
	Damping time.Duration
	// ReapThreshold: reap an overflow worker when the class average
	// falls below it.
	ReapThreshold float64
	// MaxPerClass bounds workers per class (0 = unlimited).
	MaxPerClass int
}

// DefaultPolicy mirrors the values used in the Figure 8 experiment.
func DefaultPolicy() Policy {
	return Policy{
		SpawnThreshold: 15,
		Damping:        15 * time.Second,
		ReapThreshold:  1,
		MaxPerClass:    0,
	}
}

// ShouldSpawn applies H/D given a class's average queue, live count,
// and the time of its last spawn.
func (p Policy) ShouldSpawn(classAvg float64, count int, now, lastSpawn time.Time) bool {
	if p.MaxPerClass > 0 && count >= p.MaxPerClass {
		return false
	}
	if now.Sub(lastSpawn) < p.Damping {
		return false
	}
	return classAvg > p.SpawnThreshold
}

// ShouldReap reports whether an overflow worker should be released.
func (p Policy) ShouldReap(classAvg float64, count int, now, lastSpawn time.Time) bool {
	if count <= 1 {
		return false
	}
	if now.Sub(lastSpawn) < p.Damping {
		return false
	}
	return classAvg < p.ReapThreshold
}

// Spawner is the manager's lever on the cluster, wired up by the
// platform layer (it stands in for the per-node daemons a production
// deployment would run).
type Spawner interface {
	// SpawnWorker starts a fresh worker of class somewhere
	// appropriate; overflow selects the overflow pool.
	SpawnWorker(class string, overflow bool) error
	// ReapWorker stops a worker process.
	ReapWorker(id string) error
	// Restart restarts a crashed front end or cache service by name
	// (process peer). A cache's content is gone — it was a cache — but
	// the partition's address and key range come back, so front ends
	// re-absorb it without reconfiguration.
	Restart(name string) error
	// HasDedicatedCapacity reports whether a dedicated (non-
	// overflow) node can host another worker.
	HasDedicatedCapacity() bool
}

// Config tunes the manager.
type Config struct {
	Name   string
	Node   string
	Net    *san.Network
	Policy Policy
	// BeaconInterval is the multicast beacon period.
	BeaconInterval time.Duration
	// WorkerTTL expires workers that stop reporting ("timeouts are
	// used as a backup mechanism to infer failures", §3.1.3).
	WorkerTTL time.Duration
	// FETTL expires front ends that stop heartbeating; expiry
	// triggers the process-peer restart.
	FETTL time.Duration
	// CacheTTL expires cache services that stop heartbeating; expiry
	// triggers the process-peer restart (defaults to FETTL).
	CacheTTL time.Duration
	// SupTTL expires supervisors that stop heartbeating (defaults to
	// FETTL). An expired supervisor simply drops out of delegation
	// resolution; its own process respawns it.
	SupTTL time.Duration
	// Prefix is the node-name prefix of the process hosting this
	// manager. A dead component whose owning supervisor advertises a
	// different prefix lives in another OS process: its restart is
	// delegated to that supervisor over the SAN instead of attempted
	// (and failed) locally. Components behind the manager's own prefix
	// keep the direct local restart path — same process, no SAN hop.
	Prefix string
	// CmdTimeout bounds one delegated supervisor command (default 2s).
	CmdTimeout time.Duration
	// Spawner performs cluster actions; may be nil (no spawning).
	Spawner Spawner
	// Rank is this replica's election rank. It staggers takeover
	// timing (rank r waits r extra beacon intervals beyond
	// ElectionTimeout) so replicas claim the primacy one at a time
	// instead of racing.
	Rank int
	// Standby starts the replica in standby mode: full receive loop,
	// no beacons, no policy sweeps, no delegation — until it wins an
	// election. False (the default) starts as the acting primary at
	// epoch 1, which keeps a single-manager deployment's behavior
	// identical to the pre-replication code.
	Standby bool
	// ElectionTimeout is how long a standby tolerates primary silence
	// before claiming the primacy (plus the rank stagger). Default
	// 3 beacon intervals.
	ElectionTimeout time.Duration
	// InitialEpoch seeds the replica's election epoch. A respawned
	// replica re-enters the cluster already knowing roughly where the
	// epoch stands, so its eventual claim outbids the regime it died
	// under instead of a long-deposed one. A non-standby replica
	// claims InitialEpoch+1 immediately. Zero is the natural cold
	// start (a fresh primary claims epoch 1).
	InitialEpoch uint64
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "manager"
	}
	if c.BeaconInterval <= 0 {
		c.BeaconInterval = stub.DefaultBeaconInterval
	}
	if c.WorkerTTL <= 0 {
		c.WorkerTTL = 5 * c.BeaconInterval
	}
	if c.FETTL <= 0 {
		c.FETTL = 6 * c.BeaconInterval
	}
	if c.CacheTTL <= 0 {
		c.CacheTTL = c.FETTL
	}
	if c.SupTTL <= 0 {
		c.SupTTL = c.FETTL
	}
	if c.CmdTimeout <= 0 {
		c.CmdTimeout = 2 * time.Second
	}
	if c.ElectionTimeout <= 0 {
		c.ElectionTimeout = 3 * c.BeaconInterval
	}
	if c.Policy == (Policy{}) {
		c.Policy = DefaultPolicy()
	}
	return c
}

// Stats is a snapshot of manager activity.
type Stats struct {
	Workers        int
	FrontEnds      int
	Caches         int
	Supervisors    int
	Spawns         uint64
	Reaps          uint64
	FERestarts     uint64
	CacheRestarts  uint64
	ReportsHandled uint64
	BeaconsSent    uint64
	Registrations  uint64
	// Delegated counts process-peer actions executed by a remote
	// supervisor on this manager's behalf; DelegateFails counts
	// delegation attempts that timed out or were refused (each is
	// retried, with fallback to the local spawner).
	Delegated      uint64
	DelegateFails  uint64
	DelegatedSpawn uint64
	// Election state: whether this replica is the acting primary, the
	// epoch it believes is current, and how many times it took over or
	// stepped down.
	Primary   bool
	Epoch     uint64
	Takeovers uint64
	StepDowns uint64
}

type workerState struct {
	info stub.WorkerInfo
	avg  *softstate.MovingAverage
}

// peerTarget identifies one dead component awaiting its process-peer
// restart: the name the restart duty acts on, plus the node whose
// prefix resolves the owning supervisor.
type peerTarget struct {
	name string
	node string
}

// Manager is the centralized load balancer. It implements
// cluster.Process.
type Manager struct {
	cfg Config
	ep  *san.Endpoint

	mu           sync.Mutex
	workers      *softstate.Table[*workerState]
	fes          *softstate.Table[stub.FEHeartbeat] // keyed by SAN address
	caches       *softstate.Table[vcache.HelloMsg]  // keyed by SAN address
	sups         *softstate.Table[supervisor.HelloMsg]
	desired      map[string]int // class -> replica floor (learned)
	lastSpawn    map[string]time.Time
	feRetry      []peerTarget
	feRetryCount map[string]int
	cacheRetry   []peerTarget
	cacheRetryN  map[string]int
	inflight     map[string]bool   // delegated commands awaiting an ack
	cmdIDs       map[string]uint64 // incident key -> command id (reused on retry)
	nextCmdID    uint64
	inflightSp   map[string]int           // class -> delegated respawns awaiting their ack
	booting      *softstate.Table[string] // spawned, not yet registered workers: spawn seq -> class
	spawnSeq     uint64
	seq          uint64
	stats        Stats

	// Election state (guarded by mu).
	primary    bool
	epoch      uint64    // current election epoch (stamped on beacons/commands)
	curPrimary san.Addr  // last observed primary (self when primary)
	lastClaim  time.Time // when a rival primary's beacon was last heard
}

// New creates a manager and eagerly registers its SAN endpoint.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:        cfg,
		workers:    softstate.NewTable[*workerState](cfg.WorkerTTL, nil),
		fes:        softstate.NewTable[stub.FEHeartbeat](cfg.FETTL, nil),
		caches:     softstate.NewTable[vcache.HelloMsg](cfg.CacheTTL, nil),
		sups:       softstate.NewTable[supervisor.HelloMsg](cfg.SupTTL, nil),
		desired:    make(map[string]int),
		lastSpawn:  make(map[string]time.Time),
		inflight:   make(map[string]bool),
		cmdIDs:     make(map[string]uint64),
		inflightSp: make(map[string]int),
		booting:    softstate.NewTable[string](cfg.WorkerTTL, nil),
	}
	m.epoch = cfg.InitialEpoch
	if !cfg.Standby {
		m.primary = true
		m.epoch++
		m.curPrimary = m.addr()
	}
	m.lastClaim = time.Now()
	m.ep = cfg.Net.Endpoint(m.addr(), 4096)
	return m
}

func (m *Manager) addr() san.Addr { return san.Addr{Node: m.cfg.Node, Proc: m.cfg.Name} }

// Addr returns the manager's SAN address.
func (m *Manager) Addr() san.Addr { return m.addr() }

// ID implements cluster.Process.
func (m *Manager) ID() string { return m.cfg.Name }

// Stats returns a snapshot of counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.Workers = m.workers.Len()
	st.FrontEnds = m.fes.Len()
	st.Caches = m.caches.Len()
	st.Supervisors = m.sups.Len()
	st.Primary = m.primary
	st.Epoch = m.epoch
	return st
}

// IsPrimary reports whether this replica is the acting primary.
func (m *Manager) IsPrimary() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.primary
}

// Epoch returns the election epoch this replica believes is current.
func (m *Manager) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Run implements cluster.Process: serve until ctx is done.
func (m *Manager) Run(ctx context.Context) error {
	if m.ep == nil || !m.cfg.Net.Lookup(m.addr()) {
		m.ep = m.cfg.Net.Endpoint(m.addr(), 4096)
	}
	ep := m.ep
	defer ep.Close()
	ep.Join(stub.GroupControl)

	beacon := time.NewTicker(m.cfg.BeaconInterval)
	defer beacon.Stop()
	policy := time.NewTicker(m.cfg.BeaconInterval)
	defer policy.Stop()

	m.mu.Lock()
	m.lastClaim = time.Now() // fresh grace window per Run
	primary := m.primary
	m.mu.Unlock()
	if primary {
		m.sendBeacon(ep) // announce immediately so workers register fast
	}

	for {
		select {
		case <-ctx.Done():
			return nil
		case <-beacon.C:
			if m.IsPrimary() {
				m.sendBeacon(ep)
			} else {
				m.maybeTakeover(ep)
			}
		case <-policy.C:
			if m.IsPrimary() {
				m.evaluatePolicy()
			}
		case msg, ok := <-ep.Inbox():
			if !ok {
				return fmt.Errorf("manager: endpoint closed")
			}
			m.handle(msg)
		}
	}
}

// maybeTakeover is the standby half of the election: primary silence
// past ElectionTimeout plus this replica's rank stagger means the
// primary is gone — claim the next epoch and beacon immediately, so
// every stub, supervisor, and rival replica re-anchors within one
// beacon interval.
func (m *Manager) maybeTakeover(ep *san.Endpoint) {
	m.mu.Lock()
	if m.primary {
		m.mu.Unlock()
		return
	}
	wait := m.cfg.ElectionTimeout + time.Duration(m.cfg.Rank)*m.cfg.BeaconInterval
	if time.Since(m.lastClaim) < wait {
		m.mu.Unlock()
		return
	}
	m.epoch++
	m.primary = true
	m.curPrimary = m.addr()
	m.stats.Takeovers++
	m.mu.Unlock()
	m.sendBeacon(ep)
}

// observeBeacon processes a rival manager replica's beacon: adopt a
// newer epoch (stepping down if this replica was primary), resolve an
// equal-epoch split claim by lowest address, and — while in standby —
// mirror the primary's worker inventory and replica floors so a later
// takeover starts from state at most one beacon interval old.
func (m *Manager) observeBeacon(b stub.Beacon) {
	if b.Manager == m.addr() {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if b.Epoch < m.epoch {
		return // deposed primary still beaconing; ignore
	}
	if b.Epoch == m.epoch && m.primary {
		// Split claim at the same epoch: lowest address wins, the
		// other steps back to standby.
		if m.addr().String() < b.Manager.String() {
			return
		}
		m.primary = false
		m.stats.StepDowns++
	} else if b.Epoch > m.epoch && m.primary {
		m.primary = false
		m.stats.StepDowns++
	}
	m.epoch = b.Epoch
	m.curPrimary = b.Manager
	m.lastClaim = time.Now()

	// Standby mirror: the primary's beacon is the ground truth for the
	// worker inventory and the per-class replica floors. Load averages
	// ride along too, so a fresh primary's very first policy sweep
	// balances with current hints instead of zeros.
	live := make(map[string]bool, len(b.Workers))
	for _, wi := range b.Workers {
		live[wi.ID] = true
		if ws, ok := m.workers.Get(wi.ID); ok {
			ws.info = wi
			m.workers.Put(wi.ID, ws)
		} else {
			ws := &workerState{info: wi, avg: &softstate.MovingAverage{Alpha: 0.3}}
			ws.avg.Add(wi.QLen)
			m.workers.Put(wi.ID, ws)
		}
	}
	for id := range m.workers.Snapshot() {
		if !live[id] {
			m.workers.Delete(id)
		}
	}
	m.desired = make(map[string]int, len(b.Floors))
	for class, f := range b.Floors {
		m.desired[class] = f
	}
}

func (m *Manager) handle(msg san.Message) {
	if msg.Reply {
		// Acks from delegated supervisor commands route back into
		// their pending Calls.
		m.ep.DeliverReply(msg)
		return
	}
	switch msg.Kind {
	case stub.MsgBeacon:
		b, ok := msg.Body.(stub.Beacon)
		if !ok {
			return
		}
		m.observeBeacon(b)
	case stub.MsgRegister:
		r, ok := msg.Body.(stub.RegisterMsg)
		if !ok {
			return
		}
		m.mu.Lock()
		if _, known := m.workers.Get(r.Info.ID); !known {
			m.bootedLocked(r.Info.Class)
		}
		ws := &workerState{info: r.Info, avg: &softstate.MovingAverage{Alpha: 0.3}}
		m.workers.Put(r.Info.ID, ws)
		m.stats.Registrations++
		// The replica floor learns the highest concurrent count per
		// class, so crashed workers get replaced.
		count := m.classCountLocked(r.Info.Class)
		if count > m.desired[r.Info.Class] {
			m.desired[r.Info.Class] = count
		}
		m.mu.Unlock()
	case stub.MsgDeregister:
		d, ok := msg.Body.(stub.DeregisterMsg)
		if !ok {
			return
		}
		m.mu.Lock()
		if ws, ok := m.workers.Get(d.ID); ok {
			class := ws.info.Class
			m.workers.Delete(d.ID)
			// A voluntary de-registration lowers the floor: this
			// worker is not coming back.
			if m.desired[class] > m.classCountLocked(class) {
				m.desired[class] = m.classCountLocked(class)
			}
		}
		m.mu.Unlock()
	case stub.MsgLoadReport:
		r, ok := msg.Body.(stub.LoadReport)
		if !ok {
			return
		}
		m.mu.Lock()
		m.stats.ReportsHandled++
		if ws, ok := m.workers.Get(r.ID); ok {
			ws.avg.Add(float64(r.QLen))
			m.workers.Put(r.ID, ws) // refresh TTL
		} else if r.Info.ID == r.ID && !r.Info.Addr.IsZero() {
			// A report from a worker we expired (e.g. marooned by a
			// SAN partition that has since healed): re-admit it. Soft
			// state rebuilds from periodic messages alone (§3.1.3).
			m.bootedLocked(r.Info.Class)
			ws := &workerState{info: r.Info, avg: &softstate.MovingAverage{Alpha: 0.3}}
			ws.avg.Add(float64(r.QLen))
			m.workers.Put(r.ID, ws)
			m.stats.Registrations++
			if count := m.classCountLocked(r.Info.Class); count > m.desired[r.Info.Class] {
				m.desired[r.Info.Class] = count
			}
		}
		m.mu.Unlock()
	case stub.MsgFEHello:
		hb, ok := msg.Body.(stub.FEHeartbeat)
		if !ok {
			return
		}
		// Keyed by SAN address, not bare name, so replicated roles
		// across processes stop interleaving: two processes may each
		// host an "fe0", and one's heartbeats must not mask the death
		// of the other's (mirrors the cache table below). The first
		// heartbeat after a restart also discharges the follow-through
		// entry planted when the restart was issued.
		m.mu.Lock()
		m.fes.Delete(provisionalKey(hb.Name))
		m.fes.Put(hb.Addr.String(), hb)
		m.mu.Unlock()
	case stub.MsgSpawnReq:
		req, ok := msg.Body.(stub.SpawnReq)
		if !ok {
			return
		}
		// The front end knows no worker of the class, but its table is
		// a beacon behind this one: a class with live workers, or with
		// spawns still awaiting registration, needs no new worker —
		// the next beacon tells the front end.
		m.mu.Lock()
		known := m.classCountLocked(req.Class) + m.inflightSp[req.Class]
		for _, class := range m.booting.Snapshot() {
			if class == req.Class {
				known++
			}
		}
		m.mu.Unlock()
		if known == 0 {
			m.trySpawn(req.Class, "front-end request")
		}
	case vcache.MsgHello:
		hb, ok := msg.Body.(vcache.HelloMsg)
		if !ok {
			return
		}
		// Keyed by SAN address, not name: several processes may each
		// host a "cache0", and one process's heartbeats must not mask
		// the death of another's (the restart call still passes the
		// name — Restart acts on locally hosted partitions only).
		m.mu.Lock()
		m.caches.Delete(provisionalKey(hb.Name))
		m.caches.Put(hb.Addr.String(), hb)
		m.mu.Unlock()
	case supervisor.MsgHello:
		hb, ok := msg.Body.(supervisor.HelloMsg)
		if !ok {
			return
		}
		m.mu.Lock()
		m.sups.Put(hb.Addr.String(), hb)
		m.mu.Unlock()
	}
}

// sendBeacon multicasts the manager's existence plus the current load
// hints, and reports itself to the monitor.
func (m *Manager) sendBeacon(ep *san.Endpoint) {
	m.mu.Lock()
	m.seq++
	seq := m.seq
	epoch := m.epoch
	snap := m.workers.Snapshot()
	workers := make([]stub.WorkerInfo, 0, len(snap))
	for _, ws := range snap {
		info := ws.info
		info.QLen = ws.avg.Value()
		workers = append(workers, info)
	}
	var floors map[string]int
	if len(m.desired) > 0 {
		floors = make(map[string]int, len(m.desired))
		for class, f := range m.desired {
			if f > 0 {
				floors[class] = f
			}
		}
	}
	m.stats.BeaconsSent++
	m.mu.Unlock()
	sort.Slice(workers, func(i, j int) bool { return workers[i].ID < workers[j].ID })
	ep.Multicast(stub.GroupControl, stub.MsgBeacon, stub.Beacon{
		Manager: m.addr(),
		Seq:     seq,
		Epoch:   epoch,
		Workers: workers,
		Floors:  floors,
	})
	ep.Multicast(stub.GroupReports, stub.MsgMonReport, stub.StatusReport{
		Component: m.cfg.Name,
		Kind:      "manager",
		Node:      m.cfg.Node,
		Metrics: map[string]float64{
			"workers": float64(len(workers)),
			"seq":     float64(seq),
		},
	})
}

// evaluatePolicy runs expiry, replacement, spawn-on-load, reaping, and
// front-end process-peer checks.
func (m *Manager) evaluatePolicy() {
	now := time.Now()

	// 1. Expire silent workers (timeout failure inference). The
	// expired entries keep their info: a worker whose node belongs to
	// another OS process is respawned there, through that process's
	// supervisor, so capacity stays where the operator placed it.
	m.mu.Lock()
	expiredWorkers := m.workers.ExpiredEntries()

	// Gather per-class views.
	type classView struct {
		avg      float64
		count    int
		overflow []stub.WorkerInfo
	}
	classes := make(map[string]*classView)
	for _, ws := range m.workers.Snapshot() {
		cv := classes[ws.info.Class]
		if cv == nil {
			cv = &classView{}
			classes[ws.info.Class] = cv
		}
		cv.avg += ws.avg.Value()
		cv.count++
		if ws.info.Overflow {
			cv.overflow = append(cv.overflow, ws.info)
		}
	}
	for _, cv := range classes {
		if cv.count > 0 {
			cv.avg /= float64(cv.count)
		}
	}
	desired := make(map[string]int, len(m.desired))
	for c, d := range m.desired {
		desired[c] = d
	}
	lastSpawn := make(map[string]time.Time, len(m.lastSpawn))
	for c, t := range m.lastSpawn {
		lastSpawn[c] = t
	}
	inflightSp := make(map[string]int, len(m.inflightSp))
	for c, n := range m.inflightSp {
		inflightSp[c] = n
	}
	// A spawned worker that has not registered within WorkerTTL is
	// presumed dead, like a silent registered one.
	m.booting.Expired()
	for _, c := range m.booting.Snapshot() {
		inflightSp[c]++
	}
	m.mu.Unlock()

	if m.cfg.Spawner == nil {
		return
	}

	// 2a. Delegate respawns of workers that died in another process to
	// that process's supervisor; while a delegation is in flight, and
	// then until its worker registers, the floor loop below leaves its
	// slot alone (no double spawn). A failed delegation simply clears
	// the slot — the floor deficit is then made up locally on the next
	// tick.
	for id, ws := range expiredWorkers {
		sup, remote := m.remoteSupervisorFor(ws.info.Node)
		if !remote {
			continue
		}
		key := "respawn:" + id
		class := ws.info.Class
		m.mu.Lock()
		if m.inflight[key] {
			m.mu.Unlock()
			continue
		}
		m.inflight[key] = true
		m.inflightSp[class]++
		inflightSp[class]++
		cmdID := m.commandIDLocked(key)
		m.mu.Unlock()
		go m.delegateSpawn(key, class, cmdID, sup)
	}

	// 2b. Replace crashed workers below the replica floor, counting
	// spawns whose workers have not registered yet.
	for class, want := range desired {
		cv := classes[class]
		have := inflightSp[class]
		if cv != nil {
			have += cv.count
		}
		for have < want {
			if err := m.spawn(class, "replace crashed worker"); err != nil {
				break
			}
			have++
		}
	}

	// 3. Spawn on load (threshold H, damping D).
	for class, cv := range classes {
		if m.cfg.Policy.ShouldSpawn(cv.avg, cv.count, now, lastSpawn[class]) {
			m.trySpawn(class, "load threshold")
		}
	}

	// 4. Reap idle overflow workers once the burst subsides.
	for class, cv := range classes {
		if len(cv.overflow) == 0 {
			continue
		}
		if m.cfg.Policy.ShouldReap(cv.avg, cv.count, now, lastSpawn[class]) {
			victim := cv.overflow[0]
			_ = m.ep.Send(victim.Addr, stub.MsgShutdown, nil)
			if err := m.cfg.Spawner.ReapWorker(victim.ID); err == nil {
				m.mu.Lock()
				m.workers.Delete(victim.ID)
				if m.desired[class] > 0 {
					m.desired[class]--
				}
				m.stats.Reaps++
				m.mu.Unlock()
			}
		}
	}

	// 5. Front-end process peer: restart silent front ends. Failed
	// restarts are retried on subsequent ticks — a watcher keeps
	// watching until the peer is back.
	m.mu.Lock()
	goneFEs := append(feTargets(m.fes.ExpiredEntries()), m.feRetry...)
	m.feRetry = nil
	m.mu.Unlock()
	m.restartSweep(goneFEs, &m.feRetry, &m.feRetryCount, &m.stats.FERestarts, m.followFE)

	// 6. Cache process peer: same watch-until-back discipline for
	// silent cache services. Cache state is soft twice over — the
	// content was always discardable, and the inventory rebuilds from
	// heartbeats alone.
	m.mu.Lock()
	goneCaches := append(cacheTargets(m.caches.ExpiredEntries()), m.cacheRetry...)
	m.cacheRetry = nil
	m.mu.Unlock()
	m.restartSweep(goneCaches, &m.cacheRetry, &m.cacheRetryN, &m.stats.CacheRestarts, m.followCache)
}

// provisionalKey builds the follow-through table key for a component a
// restart was just issued for. It can never collide with a heartbeat
// key — those are "node/proc" SAN addresses.
func provisionalKey(name string) string { return "pending:" + name }

// followFE/followCache plant the restart follow-through: a successful
// restart inserts a provisional entry under the component's name that
// only the restarted instance's first real heartbeat discharges. If
// the component dies again before it ever heartbeats — or the restart
// silently produced nothing — the provisional entry expires like any
// silent peer and the watcher fires again. Without this, a component
// killed in the gap between restart and first heartbeat vanishes from
// the soft state entirely and nobody ever restarts it.
func (m *Manager) followFE(t peerTarget) {
	m.mu.Lock()
	m.fes.Put(provisionalKey(t.name), stub.FEHeartbeat{Name: t.name, Node: t.node})
	m.mu.Unlock()
}

func (m *Manager) followCache(t peerTarget) {
	m.mu.Lock()
	m.caches.Put(provisionalKey(t.name), vcache.HelloMsg{Name: t.name, Node: t.node})
	m.mu.Unlock()
}

// feTargets/cacheTargets turn expired heartbeat entries into restart
// targets: the component name the restart duty acts on, plus the node
// that resolves the owning supervisor.
func feTargets(gone map[string]stub.FEHeartbeat) []peerTarget {
	out := make([]peerTarget, 0, len(gone))
	for _, hb := range gone {
		out = append(out, peerTarget{name: hb.Name, node: hb.Node})
	}
	return out
}

func cacheTargets(gone map[string]vcache.HelloMsg) []peerTarget {
	out := make([]peerTarget, 0, len(gone))
	for _, hb := range gone {
		out = append(out, peerTarget{name: hb.Name, node: hb.Node})
	}
	return out
}

// restartSweep runs one process-peer restart pass with the shared
// retry discipline: a success counts in stat and clears the retry
// budget; a failure re-queues the target for the next tick, up to 10
// attempts. Targets owned by a supervisor in another OS process are
// delegated over the SAN (asynchronously — the ack arrives on the
// manager's own inbox, so waiting inline would deadlock the receive
// loop); everything else takes the direct local path.
// retry/counts/stat are fields of m guarded by m.mu. Incidents are
// keyed by component name alone: a process's component table is keyed
// by name, so names are unique across kinds.
func (m *Manager) restartSweep(gone []peerTarget, retry *[]peerTarget, counts *map[string]int, stat *uint64, follow func(peerTarget)) {
	for _, t := range gone {
		key := supervisor.OpRestart + ":" + t.name
		sup, remote := m.remoteSupervisorFor(t.node)
		if remote {
			m.mu.Lock()
			if m.inflight[key] {
				m.mu.Unlock()
				continue // command already in flight; the ack decides
			}
			m.inflight[key] = true
			cmdID := m.commandIDLocked(key)
			m.mu.Unlock()
			go m.delegateRestart(key, t, cmdID, sup, retry, counts, stat, follow)
			continue
		}
		if err := m.cfg.Spawner.Restart(t.name); err == nil {
			m.mu.Lock()
			*stat++
			delete(*counts, t.name)
			m.mu.Unlock()
			follow(t)
		} else {
			m.recordRestartFailure(key, t, retry, counts)
		}
	}
}

// recordRestartFailure applies the shared retry budget. When the
// budget exhausts, the incident's command id dies with it — a later,
// fresh incident for the same component must mint a new id, not be
// answered from a supervisor's cache of this one.
func (m *Manager) recordRestartFailure(key string, t peerTarget, retry *[]peerTarget, counts *map[string]int) {
	m.mu.Lock()
	if *counts == nil {
		*counts = make(map[string]int)
	}
	(*counts)[t.name]++
	if (*counts)[t.name] < 10 {
		*retry = append(*retry, t)
	} else {
		delete(*counts, t.name)
		delete(m.cmdIDs, key)
	}
	m.mu.Unlock()
}

// commandIDLocked returns the command id for an incident, minting one
// on first use. Retries of the same incident reuse the id, so a
// supervisor that executed the command but whose ack was lost answers
// the retry from its result cache instead of acting twice.
func (m *Manager) commandIDLocked(key string) uint64 {
	if id := m.cmdIDs[key]; id != 0 {
		return id
	}
	m.nextCmdID++
	m.cmdIDs[key] = m.nextCmdID
	return m.nextCmdID
}

// delegateRestart sends one restart command to the owning supervisor
// and applies the result: success counts like a local restart; failure
// falls back to the local spawner (covering components that are in
// fact hosted here), then to the shared retry budget.
func (m *Manager) delegateRestart(key string, t peerTarget, cmdID uint64, sup supervisor.HelloMsg, retry *[]peerTarget, counts *map[string]int, stat *uint64, follow func(peerTarget)) {
	ack, err := m.invokeSupervisor(sup, supervisor.Command{
		ID: cmdID, Origin: m.addr().String(), Op: supervisor.OpRestart, Target: t.name,
	})
	delegated := err == nil && ack.OK
	success := delegated
	if !success {
		m.mu.Lock()
		m.stats.DelegateFails++
		m.mu.Unlock()
		// Local fallback: if the component is actually hosted in this
		// process (stale supervisor table, or a supervisor that died
		// mid-restart of a local component), the direct path still
		// works; otherwise it errors instantly and the retry budget
		// re-delegates on the next tick. A replica that was deposed
		// while the command was in flight (the refusal above may BE the
		// stale-epoch fence) must not touch anything: the duty belongs
		// to the new primary now.
		if m.IsPrimary() {
			success = m.cfg.Spawner.Restart(t.name) == nil
		}
	}
	m.mu.Lock()
	delete(m.inflight, key)
	m.mu.Unlock()
	if success {
		m.mu.Lock()
		*stat++
		if delegated {
			m.stats.Delegated++
		}
		delete(*counts, t.name)
		delete(m.cmdIDs, key)
		m.mu.Unlock()
		follow(t)
		return
	}
	m.recordRestartFailure(key, t, retry, counts)
}

// delegateSpawn asks a remote supervisor to start a replacement worker
// of class. Failure is absorbed: the replica floor makes the deficit
// up locally on the next policy tick.
func (m *Manager) delegateSpawn(key, class string, cmdID uint64, sup supervisor.HelloMsg) {
	ack, err := m.invokeSupervisor(sup, supervisor.Command{
		ID: cmdID, Origin: m.addr().String(), Op: supervisor.OpSpawnWorker, Target: class,
	})
	ok := err == nil && ack.OK
	m.mu.Lock()
	delete(m.inflight, key)
	if m.inflightSp[class] > 0 {
		m.inflightSp[class]--
	}
	if m.inflightSp[class] == 0 {
		delete(m.inflightSp, class)
	}
	delete(m.cmdIDs, key)
	if ok {
		m.lastSpawn[class] = time.Now()
		m.bootingLocked(class)
		m.stats.Spawns++
		m.stats.DelegatedSpawn++
	} else {
		m.stats.DelegateFails++
	}
	m.mu.Unlock()
}

// invokeSupervisor performs one supervisor command Call with the
// configured timeout. The manager's receive loop routes the ack back
// into the pending call. Commands are stamped with the issuing epoch:
// a supervisor that has seen a newer one refuses the command, which is
// how a deposed primary's still-in-flight delegations die harmlessly.
func (m *Manager) invokeSupervisor(sup supervisor.HelloMsg, cmd supervisor.Command) (supervisor.Ack, error) {
	if cmd.Epoch == 0 {
		m.mu.Lock()
		cmd.Epoch = m.epoch
		m.mu.Unlock()
	}
	ctx, cancel := context.WithTimeout(context.Background(), m.cfg.CmdTimeout)
	defer cancel()
	resp, err := m.ep.Call(ctx, sup.Addr, supervisor.MsgCmd, cmd)
	if err != nil {
		return supervisor.Ack{}, err
	}
	ack, ok := resp.Body.(supervisor.Ack)
	if !ok {
		return supervisor.Ack{}, fmt.Errorf("manager: malformed supervisor ack %T", resp.Body)
	}
	return ack, nil
}

// SupervisorFor resolves the supervisor owning a node by longest
// advertised prefix (supervisor.Owner) — the RACS-style ownership
// rule: each process's supervisor governs exactly the node names
// carrying its prefix.
func (m *Manager) SupervisorFor(node string) (supervisor.HelloMsg, bool) {
	return supervisor.Owner(node, m.sups.Snapshot())
}

// remoteSupervisorFor resolves node ownership and reports whether the
// owner lives in another OS process (its advertised prefix differs
// from this manager's own). Components in the manager's own process
// keep the direct in-process restart path: delegating to a supervisor
// one function call away through a SAN round trip would only add a
// failure mode.
func (m *Manager) remoteSupervisorFor(node string) (supervisor.HelloMsg, bool) {
	sup, ok := m.SupervisorFor(node)
	return sup, ok && sup.Prefix != m.cfg.Prefix
}

// Supervisors returns the live supervisor table, sorted by address —
// operator tooling and selftests resolve delegation targets from it.
func (m *Manager) Supervisors() []supervisor.HelloMsg {
	snap := m.sups.Snapshot()
	out := make([]supervisor.HelloMsg, 0, len(snap))
	for _, hb := range snap {
		out = append(out, hb)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr.String() < out[j].Addr.String() })
	return out
}

// trySpawn spawns a worker of class if the damping window allows.
func (m *Manager) trySpawn(class, reason string) {
	m.mu.Lock()
	last := m.lastSpawn[class]
	m.mu.Unlock()
	if time.Since(last) < m.cfg.Policy.Damping {
		return
	}
	_ = m.spawn(class, reason)
}

// spawn starts a worker, preferring dedicated capacity and falling
// back to the overflow pool (§2.2.3).
func (m *Manager) spawn(class, reason string) error {
	if m.cfg.Spawner == nil {
		return fmt.Errorf("manager: no spawner configured")
	}
	overflow := !m.cfg.Spawner.HasDedicatedCapacity()
	if err := m.cfg.Spawner.SpawnWorker(class, overflow); err != nil {
		return err
	}
	m.mu.Lock()
	m.lastSpawn[class] = time.Now()
	m.bootingLocked(class)
	m.stats.Spawns++
	if c := m.classCountLocked(class) + 1; c > m.desired[class] {
		m.desired[class] = c
	}
	m.mu.Unlock()
	_ = reason // reasons surface via the monitor's spawn metric
	return nil
}

// bootingLocked records a spawned worker of class that has not
// registered yet.
func (m *Manager) bootingLocked(class string) {
	m.spawnSeq++
	m.booting.Put(strconv.FormatUint(m.spawnSeq, 10), class)
}

// bootedLocked discharges one spawn of class awaiting its worker's
// registration: a worker of class has just entered the table.
func (m *Manager) bootedLocked(class string) {
	for key, c := range m.booting.Snapshot() {
		if c == class {
			m.booting.Delete(key)
			return
		}
	}
}

func (m *Manager) classCountLocked(class string) int {
	n := 0
	for _, ws := range m.workers.Snapshot() {
		if ws.info.Class == class {
			n++
		}
	}
	return n
}

// ClassAverages exposes per-class average queue lengths (used by
// experiments and the monitor).
func (m *Manager) ClassAverages() map[string]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, ws := range m.workers.Snapshot() {
		sums[ws.info.Class] += ws.avg.Value()
		counts[ws.info.Class]++
	}
	out := make(map[string]float64, len(sums))
	for c, s := range sums {
		out[c] = s / float64(counts[c])
	}
	return out
}
