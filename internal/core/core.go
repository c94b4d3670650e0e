// Package core is the off-the-shelf SNS platform (paper §2): it
// assembles the cluster, SAN, manager, front ends, cache partitions,
// monitor, and profile database into a running system, and wires the
// process-peer fault-tolerance loops (front ends restart the manager;
// the manager restarts front ends and workers).
//
// A new service is exactly what the paper promises: register TACC
// worker classes, supply a dispatch rule, call Start. Everything below
// the Service/TACC layers — scaling, load balancing, overflow, failure
// management, monitoring — comes from here, unchanged, for every
// service.
package core

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/edge"
	"repro/internal/frontend"
	"repro/internal/manager"
	"repro/internal/monitor"
	"repro/internal/origin"
	"repro/internal/profiledb"
	"repro/internal/san"
	"repro/internal/stub"
	"repro/internal/supervisor"
	"repro/internal/tacc"
	"repro/internal/transport"
)

// Roles selects which SNS components a process hosts. The zero value
// hosts everything (the classic single-process deployment); a
// multi-process cluster gives each cmd/node process a subset and the
// components discover each other over the bridged SAN exactly as they
// would in one process. Every process additionally runs a supervisor
// daemon (internal/supervisor), regardless of its role set, so
// whichever process hosts the manager can delegate process-peer
// restarts into any other.
//
// Replicated roles: front ends, workers, and caches may be hosted by
// several processes of one cluster — FE and cache heartbeats are
// keyed by SAN address and worker ids are prefix-qualified, so
// same-named components in different processes never interleave in
// the manager's soft-state tables. The manager role itself must still
// be hosted by exactly one process (beacons carry a single manager
// address; there is no election yet).
type Roles struct {
	FrontEnds bool
	Manager   bool
	Workers   bool
	Caches    bool
	Monitor   bool
	// Edge hosts the L7 front door (internal/edge). Unlike the other
	// roles it still needs Config.EdgeListen set to actually bind.
	Edge bool
}

// All reports whether this is the host-everything zero value.
func (r Roles) All() bool { return r == (Roles{}) }

func (r Roles) frontEnds() bool { return r.All() || r.FrontEnds }
func (r Roles) manager() bool   { return r.All() || r.Manager }
func (r Roles) workers() bool   { return r.All() || r.Workers }
func (r Roles) caches() bool    { return r.All() || r.Caches }
func (r Roles) monitor() bool   { return r.All() || r.Monitor }
func (r Roles) edge() bool      { return r.All() || r.Edge }

// ParseRoles parses a comma-separated role list
// ("frontend,manager,worker,cache,monitor,edge"; "all" or "" selects
// everything) — the cmd/node flag format.
func ParseRoles(s string) (Roles, error) {
	var r Roles
	if s == "" || s == "all" {
		return r, nil
	}
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "frontend", "frontends", "fe":
			r.FrontEnds = true
		case "manager", "mgr":
			r.Manager = true
		case "worker", "workers":
			r.Workers = true
		case "cache", "caches":
			r.Caches = true
		case "monitor", "mon":
			r.Monitor = true
		case "edge":
			r.Edge = true
		case "":
		default:
			return Roles{}, fmt.Errorf("core: unknown role %q", part)
		}
	}
	if r.All() {
		return Roles{}, fmt.Errorf("core: no roles in %q", s)
	}
	return r, nil
}

// TransportConfig attaches the SAN to a socket bridge
// (internal/transport) so the process can splice into a cluster that
// spans real OS processes. A non-empty Listen enables it.
type TransportConfig struct {
	// Listen is the bridge's socket: "tcp:host:port" or "unix:/path"
	// (port 0 picks a free port).
	Listen string
	// Join lists seed bridge addresses; peer gossip completes the
	// mesh from any one of them.
	Join []string
	// ID names this process's bridge uniquely in the cluster
	// (defaults to NodePrefix, then to the resolved listen address).
	ID string
	// FlushBytes/FlushDelay tune frame batching (transport defaults
	// when zero; negative FlushDelay disables batching).
	FlushBytes int
	FlushDelay time.Duration
	// MaxBatchBytes bounds each peer's write queue: sends past the
	// bound fail fast with backpressure instead of buffering behind a
	// stalled peer (transport default when zero; negative unbounded).
	MaxBatchBytes int
}

// Config describes a deployment.
type Config struct {
	Seed int64

	// Deprecated: ignored. The SAN always serializes message bodies
	// through the stub wire codec.
	WireMode bool

	// Roles selects the components this process hosts (zero = all).
	Roles Roles

	// NodePrefix prefixes every cluster node name ("node0" becomes
	// "<prefix>node0"), keeping SAN addresses disjoint when several
	// OS processes join one logical SAN. Required (and must be
	// unique) per process in multi-process mode.
	NodePrefix string

	// Transport, when Listen is set, bridges this process's SAN to
	// its peers over sockets.
	Transport TransportConfig

	// RemoteCaches names cache partitions hosted by peer processes
	// (use CacheAddrs to compute them from the hosting process's
	// prefix and topology). Merged with locally hosted partitions
	// into every front end's view.
	RemoteCaches map[string]san.Addr

	// Topology.
	DedicatedNodes int // worker/cache/FE hosts (default 8)
	OverflowNodes  int // burst-absorbing pool (§2.2.3)
	ProcsPerNode   int // capacity heuristic per node (default 8)

	// Components.
	FrontEnds int
	// Managers is how many manager replicas this process hosts when
	// it carries the manager role (default 1). Replica 0 boots as the
	// acting primary; the rest boot standby and win the primacy by
	// the lease election in internal/manager when the primary goes
	// silent.
	Managers int
	// ManagerRank offsets the election rank of the first local
	// replica: replica i runs at rank ManagerRank+i, and only global
	// rank 0 boots as the acting primary. A multi-process deployment
	// gives each manager-role process Managers=1 and a distinct
	// ManagerRank; exactly one process runs rank 0.
	ManagerRank int
	CacheParts  int
	// CacheBudget is bytes per cache partition (default 64 MiB).
	CacheBudget int64
	// Workers maps class -> initial replica count.
	Workers map[string]int

	// Service definition.
	Registry *tacc.Registry
	Rules    tacc.DispatchRule
	Origin   origin.Fetcher

	// ProfileDir holds the ACID profile database; empty uses a
	// fresh temporary directory.
	ProfileDir string

	// Tuning.
	Policy         manager.Policy
	BeaconInterval time.Duration
	ReportInterval time.Duration
	CallTimeout    time.Duration
	FEThreads      int
	CacheTTL       time.Duration
	CacheTimeout   time.Duration // per-lookup vcache bound (0 = client default)
	MinDistillSize int
	// CacheServiceTime optionally models per-hit cache cost (§4.4).
	CacheServiceTime func() time.Duration
	// CacheSuperviseTTL is how long the manager tolerates cache
	// heartbeat silence before its process-peer duty restarts the
	// service (default 5x ReportInterval). Keep it comfortably above
	// the longest network partition a deployment should ride out —
	// restarting a merely-partitioned cache is safe (the content is
	// discardable) but churns.
	CacheSuperviseTTL time.Duration
	// DisableDeltaEstimator turns off the §4.5 queue-delta fix
	// (used by the oscillation ablation).
	DisableDeltaEstimator bool

	// Overload robustness (zero values leave each check off or at the
	// frontend package's own defaults).

	// RequestDeadline is the end-to-end budget stamped onto requests
	// that arrive without a context deadline; it propagates through
	// dispatch so every hop drops expired work. Zero = no deadline.
	RequestDeadline time.Duration
	// FEMaxInflight bounds each front end's admitted requests
	// (0 = frontend default Threads+QueueCap; negative disables).
	FEMaxInflight int
	// FEQueueHighWater sheds at admission when even the least-loaded
	// worker's estimated queue reaches this depth (0 = off).
	FEQueueHighWater float64

	// Front door (internal/edge).

	// EdgeListen, when non-empty, hosts the L7 front door on this
	// HTTP address ("host:port", port 0 picks a free port) — provided
	// the process carries the edge role (or the host-everything zero
	// Roles).
	EdgeListen string
	// FEHTTP, when non-empty, binds an HTTP adapter (edge.FEServer) on
	// this host for every local front end and advertises its address
	// in FE heartbeats — the per-replica listener the edge routes to.
	FEHTTP string
	// EdgeRetryBudget bounds edge retries as a fraction of requests
	// (0 disables transparent retry).
	EdgeRetryBudget float64

	// Observability (internal/obs).

	// TraceSampleRate samples 1 in N requests for distributed tracing
	// (0 = the obs package default of 64; 1 = every request; negative
	// disables sampling — forced spans for shed/degraded/expired
	// requests still record).
	TraceSampleRate int
	// TraceSlowThreshold, when positive, logs the full local span tree
	// of any request whose end-to-end latency exceeds it.
	TraceSlowThreshold time.Duration
}

func (c Config) withDefaults() Config {
	if c.DedicatedNodes <= 0 {
		c.DedicatedNodes = 8
	}
	if c.ProcsPerNode <= 0 {
		c.ProcsPerNode = 8
	}
	if c.FrontEnds <= 0 {
		c.FrontEnds = 1
	}
	if c.Managers <= 0 {
		c.Managers = 1
	}
	if c.CacheParts <= 0 {
		c.CacheParts = 2
	}
	if c.CacheBudget <= 0 {
		c.CacheBudget = 64 << 20
	}
	if c.Registry == nil {
		c.Registry = tacc.NewRegistry()
	}
	if c.BeaconInterval <= 0 {
		c.BeaconInterval = stub.DefaultBeaconInterval
	}
	if c.ReportInterval <= 0 {
		c.ReportInterval = c.BeaconInterval
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = stub.DefaultCallTimeout
	}
	if c.CacheSuperviseTTL <= 0 {
		c.CacheSuperviseTTL = 5 * c.ReportInterval
	}
	if c.FEThreads <= 0 {
		c.FEThreads = 64
	}
	if c.Policy == (manager.Policy{}) {
		c.Policy = manager.DefaultPolicy()
	}
	return c
}

// System is a running SNS deployment.
type System struct {
	cfg Config

	Net     *san.Network
	Cluster *cluster.Cluster
	DB      *profiledb.DB
	Profile *profiledb.ReadCache
	Mon     *monitor.Monitor // nil when the monitor role is remote
	// Bridge is the socket transport splicing this process into a
	// multi-process SAN; nil in single-process deployments.
	Bridge *transport.Bridge

	mu sync.Mutex
	// comps is the component table: every locally hosted worker, front
	// end, cache partition and manager replica, by name.
	comps map[string]*component
	// fes lists the front-end records in creation order (the request
	// path's round-robin set).
	fes        []*component
	cacheNodes map[string]san.Addr // local + remote partitions (FE view)
	mgrEpochHW uint64              // high-water election epoch across local replicas
	lastMgrFix time.Time
	sup        *supervisor.Supervisor
	supNode    string
	edge       *edge.Edge

	workerSeq atomic.Int64
	rr        atomic.Uint64
	tmpDir    string
	stopped   atomic.Bool
}

// nodeName/ovfName build prefix-qualified cluster node names — unique
// across processes when each supplies a distinct NodePrefix.
func nodeName(prefix string, i int) string { return fmt.Sprintf("%snode%d", prefix, i) }
func ovfName(prefix string, i int) string  { return fmt.Sprintf("%sovf%d", prefix, i) }

// CacheAddrs computes the deterministic SAN addresses the cache
// partitions of a process started with the given prefix and topology
// will hold: cache i lives on node i (mod dedicated). A front-end
// process uses this to reach partitions hosted by a peer process
// without a discovery protocol. Zero parts/dedicated take the Config
// defaults (2 partitions, 8 nodes).
func CacheAddrs(nodePrefix string, cacheParts, dedicatedNodes int) map[string]san.Addr {
	if cacheParts <= 0 {
		cacheParts = 2
	}
	if dedicatedNodes <= 0 {
		dedicatedNodes = 8
	}
	out := make(map[string]san.Addr, cacheParts)
	for i := 0; i < cacheParts; i++ {
		name := fmt.Sprintf("cache%d", i)
		out[name] = san.Addr{Node: nodeName(nodePrefix, i%dedicatedNodes), Proc: name}
	}
	return out
}

// Start builds and boots a system.
func Start(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	s := &System{
		cfg:        cfg,
		comps:      make(map[string]*component),
		cacheNodes: make(map[string]san.Addr),
	}
	s.Net = san.NewNetwork(cfg.Seed, stub.WireCodec{})
	s.configureObs()
	if cfg.Transport.Listen != "" {
		id := cfg.Transport.ID
		if id == "" {
			id = cfg.NodePrefix // may still be empty; bridge then uses its listen addr
		}
		br, err := transport.New(transport.Config{
			Net:           s.Net,
			Listen:        cfg.Transport.Listen,
			Join:          cfg.Transport.Join,
			ID:            id,
			FlushBytes:    cfg.Transport.FlushBytes,
			FlushDelay:    cfg.Transport.FlushDelay,
			MaxBatchBytes: cfg.Transport.MaxBatchBytes,
		})
		if err != nil {
			return nil, err
		}
		s.Bridge = br
	}
	s.Cluster = cluster.New(s.Net)
	for i := 0; i < cfg.DedicatedNodes; i++ {
		s.Cluster.AddNode(nodeName(cfg.NodePrefix, i), false)
	}
	for i := 0; i < cfg.OverflowNodes; i++ {
		s.Cluster.AddNode(ovfName(cfg.NodePrefix, i), true)
	}

	// ACID island: the profile database.
	dir := cfg.ProfileDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "sns-profiles-*")
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		s.tmpDir = tmp
		dir = tmp
	}
	db, err := profiledb.Open(dir)
	if err != nil {
		s.cleanup()
		return nil, err
	}
	s.DB = db
	s.Profile = profiledb.NewReadCache(db)

	if s.cfg.Origin == nil {
		s.cfg.Origin = origin.NewSimulated(cfg.Seed)
	}

	// Per-process supervisor daemon — every role set gets one, so the
	// manager's process-peer duties reach into this process wherever
	// the manager itself lives. A local watchdog respawns it if it
	// dies: the supervisor must not be the one component nobody
	// supervises.
	if err := s.spawnSupervisor(); err != nil {
		s.cleanup()
		return nil, err
	}
	s.Cluster.OnExit(func(info cluster.ExitInfo) {
		if info.Proc == "sup" && !s.stopped.Load() {
			go func() { _ = s.spawnSupervisor() }()
		}
	})

	// Cache partitions. Placement comes from CacheAddrs — the same
	// function peer processes call — so the "computed address ==
	// actual address" contract that replaces a discovery protocol is
	// enforced by construction, not by keeping two formulas in sync.
	if cfg.Roles.caches() {
		for name, addr := range CacheAddrs(cfg.NodePrefix, cfg.CacheParts, cfg.DedicatedNodes) {
			if err := s.launch(&component{kind: cacheKind, name: name}, addr.Node); err != nil {
				s.cleanup()
				return nil, err
			}
		}
	}
	// Partitions hosted by peer processes join the front ends' view.
	s.mu.Lock()
	for name, addr := range cfg.RemoteCaches {
		if _, local := s.cacheNodes[name]; !local {
			s.cacheNodes[name] = addr
		}
	}
	s.mu.Unlock()

	// Manager replicas: global rank 0 boots as the acting primary,
	// everyone else standby. The election (internal/manager) owns
	// primacy from here on.
	if cfg.Roles.manager() {
		for i := 0; i < cfg.Managers; i++ {
			rank := cfg.ManagerRank + i
			if err := s.spawnManagerReplica(rank, rank != 0, 0); err != nil {
				s.cleanup()
				return nil, err
			}
		}
	}

	// Monitor.
	if cfg.Roles.monitor() {
		s.Mon = monitor.New(monitor.Config{
			Node:         s.placeOrErr(),
			Net:          s.Net,
			SilenceAfter: 4 * cfg.ReportInterval,
		})
		if _, err := s.Cluster.Spawn(s.Mon.Addr().Node, s.Mon); err != nil {
			s.cleanup()
			return nil, err
		}
	}

	// Initial workers.
	if cfg.Roles.workers() {
		for class, n := range cfg.Workers {
			for i := 0; i < n; i++ {
				if err := s.SpawnWorker(class, false); err != nil {
					s.cleanup()
					return nil, err
				}
			}
		}
	}

	// Span reporter: publishes this process's trace spans on the report
	// group and ingests its peers', so any process can answer
	// /trace?id= with the cluster-wide tree.
	rep := &obsReporter{
		name:     "obsrep",
		node:     s.placeOrErr(),
		net:      s.Net,
		interval: cfg.ReportInterval,
	}
	if _, err := s.Cluster.Spawn(rep.node, rep); err != nil {
		s.cleanup()
		return nil, err
	}

	// Front ends.
	if cfg.Roles.frontEnds() {
		for i := 0; i < cfg.FrontEnds; i++ {
			c := &component{kind: frontEndKind, name: fmt.Sprintf("fe%d", i)}
			if err := s.launch(c, s.placeOrErr()); err != nil {
				s.cleanup()
				return nil, err
			}
			s.mu.Lock()
			s.fes = append(s.fes, c)
			s.mu.Unlock()
		}
	}

	// Front door: one L7 edge proxy balancing across the FE replicas
	// it hears heartbeating (local and peer-process alike).
	if cfg.EdgeListen != "" && cfg.Roles.edge() {
		// Generous pool TTL: an FE being SIGKILLed and respawned must
		// keep its (ejected) slot across the gap so the probe
		// readmission path runs. The kill→respawn window is wall-clock
		// (detection sweep + spawn), not a beacon multiple, so the TTL
		// gets an absolute floor even under very fast test beacons.
		poolTTL := 20 * cfg.BeaconInterval
		if poolTTL < 2*time.Second {
			poolTTL = 2 * time.Second
		}
		eg, err := edge.New(edge.Config{
			Name:        "edge",
			Node:        s.placeOrErr(),
			Net:         s.Net,
			Listen:      cfg.EdgeListen,
			RetryBudget: cfg.EdgeRetryBudget,
			Pool: edge.PoolConfig{
				TTL:        poolTTL,
				ProbeAfter: 2 * cfg.BeaconInterval,
				Seed:       cfg.Seed,
			},
			RequestTimeout: cfg.RequestDeadline,
		})
		if err != nil {
			s.cleanup()
			return nil, err
		}
		if _, err := s.Cluster.Spawn(eg.Addr().Node, eg); err != nil {
			_ = eg.Close()
			s.cleanup()
			return nil, err
		}
		s.mu.Lock()
		s.edge = eg
		s.mu.Unlock()
	}
	return s, nil
}

func (s *System) placeOrErr() string {
	return s.Cluster.Place(false, nil)
}

func (s *System) cleanup() {
	s.Cluster.StopAll()
	s.mu.Lock()
	var adapters []*edge.FEServer
	for _, c := range s.fes {
		if c.http != nil {
			adapters = append(adapters, c.http)
		}
	}
	eg := s.edge
	s.mu.Unlock()
	for _, a := range adapters {
		_ = a.Close()
	}
	if eg != nil {
		_ = eg.Close()
	}
	if s.Bridge != nil {
		_ = s.Bridge.Close()
	}
	s.Net.Close()
	if s.DB != nil {
		s.DB.Close()
	}
	if s.tmpDir != "" {
		os.RemoveAll(s.tmpDir)
	}
}

// Stop shuts the whole system down.
func (s *System) Stop() {
	if !s.stopped.CompareAndSwap(false, true) {
		return
	}
	s.cleanup()
}

// Supervisor returns this process's supervisor daemon.
func (s *System) Supervisor() *supervisor.Supervisor {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sup
}

// spawnSupervisor starts (or restarts) the per-process supervisor. The
// address is stable across respawns — a restarted daemon reclaims its
// name, and managers keep delegating to the same place.
func (s *System) spawnSupervisor() error {
	if s.stopped.Load() {
		return fmt.Errorf("core: system stopped")
	}
	s.mu.Lock()
	node := s.supNode
	s.mu.Unlock()
	// If the daemon's node died, it moves; the fresh hello re-teaches
	// every manager the new address (the table is address-keyed).
	if !s.nodeAlive(node) {
		if node = s.placeOrErr(); node == "" {
			return fmt.Errorf("core: no node for supervisor")
		}
	}
	sup := supervisor.New(supervisor.Config{
		Node:              node,
		Net:               s.Net,
		Prefix:            s.cfg.NodePrefix,
		Host:              s,
		HeartbeatGroup:    stub.GroupControl,
		HeartbeatInterval: s.cfg.ReportInterval,
		DisableKind:       stub.MsgDisable,
		EnableKind:        stub.MsgEnable,
		// The supervisor cannot import the stub package (stub's wire
		// codec encodes supervisor commands), so the beacon-epoch
		// extraction it fences stale commands with is injected here.
		EpochFrom: func(kind string, body any) (uint64, bool) {
			if kind != stub.MsgBeacon {
				return 0, false
			}
			if b, ok := body.(stub.Beacon); ok {
				return b.Epoch, true
			}
			return 0, false
		},
	})
	if _, err := s.Cluster.Spawn(node, sup); err != nil {
		return err
	}
	s.mu.Lock()
	s.sup = sup
	s.supNode = node
	s.mu.Unlock()
	return nil
}

// Edge returns the front-door proxy this process hosts (nil when the
// edge role or EdgeListen is unset).
func (s *System) Edge() *edge.Edge {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.edge
}

// WaitReady blocks until the system is serviceable. In a
// single-process deployment that means every front end's receive loop
// is running and has heard a manager beacon, and the initially
// configured workers have registered with the manager. A process
// hosting only a subset of roles checks what it can observe: a
// local manager counts registrations (from this process and its
// peers alike); front ends without a local manager instead wait until
// their stub's beacon cache holds every configured worker class at
// full strength — the cluster-wide view a beacon carries. It returns
// false on timeout.
func (s *System) WaitReady(timeout time.Duration) bool {
	want := 0
	for _, n := range s.cfg.Workers {
		want += n
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ready := true
		if s.cfg.Roles.manager() {
			// The primary's (or, in a standby-only process, the beacon
			// mirror's) worker table carries the cluster-wide count.
			if m := s.PrimaryManager(); m == nil || m.Stats().Workers < want {
				ready = false
			}
		}
		if s.cfg.Roles.frontEnds() {
			fes := s.FrontEnds()
			if len(fes) == 0 {
				ready = false
			}
			for _, fe := range fes {
				if !fe.Running() || fe.ManagerStub().Stats().BeaconsSeen == 0 {
					ready = false
					break
				}
				if !s.cfg.Roles.manager() {
					// The manager is remote: readiness is judged from
					// the worker inventory its beacons deliver.
					for class, n := range s.cfg.Workers {
						if len(fe.ManagerStub().Workers(class)) < n {
							ready = false
							break
						}
					}
				}
			}
		}
		if eg := s.Edge(); eg != nil {
			// The front door is serviceable once its listener is live
			// and it has heard at least one routable FE heartbeat.
			if !eg.Running() || eg.PoolStats().Healthy < 1 {
				ready = false
			}
		}
		if ready {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

// Request submits a client request, round-robining across live front
// ends — the in-process analogue of the paper's client-side load
// balancing (JavaScript auto-config / round-robin DNS, §3.1.2).
func (s *System) Request(ctx context.Context, url, user string) (frontend.Response, error) {
	fes := s.FrontEnds()
	if len(fes) == 0 {
		return frontend.Response{}, fmt.Errorf("core: no front ends")
	}
	start := int(s.rr.Add(1))
	var lastErr error
	for i := 0; i < len(fes); i++ {
		fe := fes[(start+i)%len(fes)]
		if !fe.Running() {
			continue // masks transient front end failures
		}
		resp, err := fe.Do(ctx, frontend.Request{URL: url, User: user})
		if err == nil {
			return resp, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("core: no running front end")
	}
	return frontend.Response{}, lastErr
}

// SetProfile writes one user preference through to the ACID store.
func (s *System) SetProfile(user, key, val string) error {
	return s.Profile.Set(user, key, val)
}
