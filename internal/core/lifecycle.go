package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/edge"
	"repro/internal/frontend"
	"repro/internal/manager"
	"repro/internal/san"
	"repro/internal/stub"
	"repro/internal/vcache"
)

// kind is one row of the component table: how to start a component of
// that kind on a node, and what a crash-style Kill does to it.
type kind struct {
	// dropOnKill makes Kill drop the SAN endpoint before cancelling the
	// process, so the crash sends no goodbye (a worker's deregistration)
	// and the loss must be inferred from silence (§3.1.3).
	dropOnKill bool
	// forgetOnKill makes Kill remove the record: the manager replaces a
	// crashed worker under a fresh id instead of restarting it by name.
	forgetOnKill bool
	// spawn starts one instance of c on node.
	spawn func(s *System, c *component, node string) (cluster.Process, *cluster.Handle, error)
}

var (
	workerKind   = &kind{dropOnKill: true, forgetOnKill: true, spawn: (*System).spawnWorker}
	frontEndKind = &kind{spawn: (*System).spawnFrontEnd}
	cacheKind    = &kind{dropOnKill: true, spawn: (*System).spawnCache}
	managerKind  = &kind{spawn: (*System).spawnManager}
)

// component is one locally hosted component's record in the table. The
// record outlives its instances: a restart replaces proc and h in place.
type component struct {
	kind *kind
	name string // the live instance's process id: what Kill, Restart and Addr take
	node string
	proc cluster.Process
	h    *cluster.Handle

	// What a respawn needs.
	class    string         // worker class
	overflow bool           // worker runs in the overflow pool
	http     *edge.FEServer // front end's HTTP adapter (nil without Config.FEHTTP)
	rank     int            // manager election rank
	gen      int            // manager spawn generation, for distinct process names
	standby  bool           // manager boots standby on its next spawn
	epoch    uint64         // manager's seed election epoch for its next spawn
}

// launch starts c on node through its kind's row and files the record
// under the new instance's name.
func (s *System) launch(c *component, node string) error {
	if node == "" {
		return fmt.Errorf("core: no node to place %s", c.name)
	}
	p, h, err := c.kind.spawn(s, c, node)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if c.name != p.ID() {
		delete(s.comps, c.name) // a manager respawn takes a fresh name
	}
	c.name, c.node, c.proc, c.h = p.ID(), node, p, h
	s.comps[c.name] = c
	s.mu.Unlock()
	return nil
}

// stop ends c's live instance and waits for it to exit. A crash drops
// the SAN endpoint first when the kind's row says so; a graceful stop
// lets the instance say goodbye.
func (s *System) stop(c *component, crash bool) {
	s.mu.Lock()
	addr, h := san.Addr{Node: c.node, Proc: c.name}, c.h
	s.mu.Unlock()
	if crash && c.kind.dropOnKill {
		s.Net.Drop(addr)
	}
	h.Kill()
	<-h.Done()
}

// Kill crashes a locally hosted component — worker, front end, cache
// partition or manager replica — without respawning it: whoever holds
// its process-peer duty must notice the silence and bring it back (the
// manager restarts front ends and caches and replaces workers; the
// front ends' watchdog respawns managers). Worker and cache kills drop
// the SAN endpoint first, so no goodbye traffic escapes; a killed
// worker is forgotten, since its replacement gets a fresh id.
func (s *System) Kill(name string) error {
	s.mu.Lock()
	c := s.comps[name]
	if c != nil && c.kind.forgetOnKill {
		delete(s.comps, name)
	}
	s.mu.Unlock()
	if c == nil {
		return fmt.Errorf("core: no component %s hosted here", name)
	}
	s.stop(c, true)
	return nil
}

// Restart stops a locally hosted worker, front end or cache partition
// gracefully (a worker deregisters, so the manager spawns no
// replacement) and respawns it under the same name: in place when its
// node survives, on a freshly placed node when the node died. A cache
// that moves re-points every local front end's view. Restart is
// stop-then-start even for a live component — a false alarm (a slow
// front end) must not leave two instances coexisting. Manager replicas
// are refused: the election watchdog (restartManager) respawns those.
func (s *System) Restart(name string) error {
	if s.stopped.Load() {
		return fmt.Errorf("core: system stopped")
	}
	s.mu.Lock()
	c := s.comps[name]
	s.mu.Unlock()
	if c == nil {
		return fmt.Errorf("core: no component %s hosted here", name)
	}
	if c.kind == managerKind {
		return fmt.Errorf("core: %s is a manager replica; the election watchdog respawns those", name)
	}
	s.stop(c, false)
	s.mu.Lock()
	node := c.node
	s.mu.Unlock()
	if !s.nodeAlive(node) {
		node = s.placeOrErr()
	}
	return s.launch(c, node)
}

// Addr resolves a live, locally hosted component's SAN address. A
// component that was killed or crashed and has not been respawned
// resolves to nothing.
func (s *System) Addr(name string) (san.Addr, bool) {
	s.mu.Lock()
	c := s.comps[name]
	var addr san.Addr
	var h *cluster.Handle
	if c != nil {
		addr, h = san.Addr{Node: c.node, Proc: c.name}, c.h
	}
	s.mu.Unlock()
	if c == nil {
		return san.Addr{}, false
	}
	select {
	case <-h.Done():
		return san.Addr{}, false
	default:
		return addr, true
	}
}

// nodeAlive reports whether node is a live cluster node.
func (s *System) nodeAlive(node string) bool {
	for _, n := range s.Cluster.Nodes() {
		if n.ID == node {
			return n.Alive
		}
	}
	return false
}

// namesLocked returns the names of the records of kind k, sorted.
// Callers hold s.mu.
func (s *System) namesLocked(k *kind) []string {
	var out []string
	for name, c := range s.comps {
		if c.kind == k {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// SpawnWorker starts a fresh worker of class on the least-loaded
// eligible node. overflow selects the overflow pool; a full dedicated
// pool recruits overflow anyway (§2.2.3).
func (s *System) SpawnWorker(class string, overflow bool) error {
	var node string
	if !overflow {
		node = s.placeDedicated()
	}
	if node == "" {
		node = s.Cluster.Place(true, func(n cluster.Node) bool { return n.Overflow })
		overflow = true
	}
	if node == "" {
		return fmt.Errorf("core: no capacity for worker class %s", class)
	}
	// Prefix-qualified like node names, so replicated worker roles
	// across processes never collide in the manager's id-keyed table.
	id := fmt.Sprintf("%s%s.%d", s.cfg.NodePrefix, class, s.workerSeq.Add(1))
	return s.launch(&component{kind: workerKind, name: id, class: class, overflow: overflow}, node)
}

// ReapWorker stops a worker gracefully and forgets it — the manager's
// release of an idle overflow worker.
func (s *System) ReapWorker(id string) error {
	s.mu.Lock()
	c := s.comps[id]
	if c != nil && c.kind == workerKind {
		delete(s.comps, id)
	}
	s.mu.Unlock()
	if c == nil || c.kind != workerKind {
		return fmt.Errorf("core: unknown worker %s", id)
	}
	s.stop(c, false)
	return nil
}

// HasDedicatedCapacity reports whether any dedicated node has room.
func (s *System) HasDedicatedCapacity() bool { return s.placeDedicated() != "" }

// placeDedicated picks the least-loaded dedicated node with room for
// another process ("" when the dedicated pool is full).
func (s *System) placeDedicated() string {
	return s.Cluster.Place(false, func(n cluster.Node) bool {
		return len(n.Procs) < s.cfg.ProcsPerNode
	})
}

func (s *System) spawnWorker(c *component, node string) (cluster.Process, *cluster.Handle, error) {
	w, err := s.cfg.Registry.New(c.class)
	if err != nil {
		return nil, nil, err
	}
	ws := stub.NewWorkerStub(c.name, node, w, s.Net, stub.WorkerConfig{
		ReportInterval: s.cfg.ReportInterval,
		Overflow:       c.overflow,
	})
	h, err := s.Cluster.Spawn(node, ws)
	return ws, h, err
}

// spawnCache starts a cache partition (empty — it is a cache) with its
// supervision heartbeat on the control group, so whichever process
// hosts the manager carries its process-peer duty. A partition whose
// address changed re-points every local front end's view.
func (s *System) spawnCache(c *component, node string) (cluster.Process, *cluster.Handle, error) {
	svc := vcache.NewService(c.name, s.Net, node, vcache.NewPartition(s.cfg.CacheBudget, nil))
	svc.ServiceTime = s.cfg.CacheServiceTime
	svc.HeartbeatGroup = stub.GroupControl
	svc.HeartbeatInterval = s.cfg.ReportInterval
	h, err := s.Cluster.Spawn(node, svc)
	if err != nil {
		return nil, nil, err
	}
	addr := svc.Addr()
	s.mu.Lock()
	old, known := s.cacheNodes[c.name]
	s.cacheNodes[c.name] = addr
	s.mu.Unlock()
	if known && old != addr {
		for _, fe := range s.FrontEnds() {
			fe.Cache().RemoveNode(c.name)
			fe.Cache().AddNode(c.name, addr)
		}
	}
	return svc, h, nil
}

func (s *System) spawnFrontEnd(c *component, node string) (cluster.Process, *cluster.Handle, error) {
	// Remote congestion sheds upstream: each FE's admission estimator
	// samples the bridge's backpressure counter, so a stalled peer
	// process shows up as saturation here instead of as silent frame
	// loss.
	var backpressureFn func() uint64
	if s.Bridge != nil {
		br := s.Bridge
		backpressureFn = func() uint64 { return br.Stats().Backpressure }
	}
	// Bind the replica's HTTP adapter before building the front end:
	// the bound address goes into the config so the very first
	// heartbeat already advertises it. A respawn rebinds (fresh port);
	// the edge's pool entry is keyed by SAN address, so the new
	// address refreshes the existing slot and the half-open probe
	// readmits it.
	var fesrv *edge.FEServer
	httpAddr := ""
	if s.cfg.FEHTTP != "" {
		var err error
		if fesrv, err = edge.NewFEServer(s.cfg.FEHTTP); err != nil {
			return nil, nil, err
		}
		httpAddr = fesrv.Addr()
	}
	fe := frontend.New(frontend.Config{
		Name:              c.name,
		Node:              node,
		Net:               s.Net,
		Rules:             s.cfg.Rules,
		Profiles:          s.Profile,
		Origin:            s.cfg.Origin,
		CacheNodes:        s.CacheNodes(),
		Threads:           s.cfg.FEThreads,
		CacheTTL:          s.cfg.CacheTTL,
		CacheTimeout:      s.cfg.CacheTimeout,
		HeartbeatInterval: s.cfg.BeaconInterval,
		HTTPAddr:          httpAddr,
		MinDistillSize:    s.cfg.MinDistillSize,
		RequestDeadline:   s.cfg.RequestDeadline,
		MaxInflight:       s.cfg.FEMaxInflight,
		QueueHighWater:    s.cfg.FEQueueHighWater,
		BackpressureFn:    backpressureFn,
		ManagerStub: stub.ManagerStubConfig{
			Seed:             s.cfg.Seed,
			CallTimeout:      s.cfg.CallTimeout,
			UseDelta:         !s.cfg.DisableDeltaEstimator,
			WorkerTTL:        20 * s.cfg.BeaconInterval,
			ManagerTimeout:   5 * s.cfg.BeaconInterval,
			OnManagerSilence: s.restartManager,
		},
	})
	h, err := s.Cluster.Spawn(node, fe)
	if err != nil {
		if fesrv != nil {
			_ = fesrv.Close()
		}
		return nil, nil, err
	}
	if fesrv != nil {
		fesrv.Serve(fe)
	}
	s.mu.Lock()
	old := c.http
	c.http = fesrv
	s.mu.Unlock()
	if old != nil {
		_ = old.Close() // respawn: retire the dead instance's adapter
	}
	return fe, h, nil
}

// spawnManager starts one manager replica. Each spawn generation gets a
// distinct process name so a lingering old instance can never collide
// with its replacement.
func (s *System) spawnManager(c *component, node string) (cluster.Process, *cluster.Handle, error) {
	name := "manager"
	if c.rank > 0 {
		name = fmt.Sprintf("manager-r%d", c.rank)
	}
	if c.gen > 1 {
		name = fmt.Sprintf("%s.%d", name, c.gen)
	}
	m := manager.New(manager.Config{
		Name:           name,
		Node:           node,
		Net:            s.Net,
		Policy:         s.cfg.Policy,
		BeaconInterval: s.cfg.BeaconInterval,
		WorkerTTL:      5 * s.cfg.ReportInterval,
		FETTL:          6 * s.cfg.BeaconInterval,
		CacheTTL:       s.cfg.CacheSuperviseTTL,
		Prefix:         s.cfg.NodePrefix,
		CmdTimeout:     s.cfg.CallTimeout,
		Spawner:        s,
		Rank:           c.rank,
		Standby:        c.standby,
		InitialEpoch:   c.epoch,
	})
	h, err := s.Cluster.Spawn(node, m)
	return m, h, err
}

// spawnManagerReplica starts (or restarts) the replica of the given
// rank. initialEpoch seeds its election epoch so a respawn re-enters
// the cluster already knowing roughly where the epoch stands (its first
// claim outbids the epoch it died holding instead of a long-deposed
// one).
func (s *System) spawnManagerReplica(rank int, standby bool, initialEpoch uint64) error {
	s.mu.Lock()
	c := &component{kind: managerKind, rank: rank}
	for _, r := range s.comps {
		if r.kind == managerKind && r.rank == rank {
			c = r
		}
	}
	c.gen++
	c.standby, c.epoch = standby, initialEpoch
	s.mu.Unlock()
	return s.launch(c, s.placeOrErr())
}

// replica is a snapshot of one manager replica record.
type replica struct {
	name string
	rank int
	m    *manager.Manager
	h    *cluster.Handle
}

// replicas snapshots the manager replica records in rank order.
func (s *System) replicas() []replica {
	s.mu.Lock()
	defer s.mu.Unlock()
	var recs []*component
	for _, c := range s.comps {
		if c.kind == managerKind {
			recs = append(recs, c)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].rank < recs[j].rank })
	out := make([]replica, len(recs))
	for i, c := range recs {
		out[i] = replica{c.name, c.rank, c.proc.(*manager.Manager), c.h}
	}
	return out
}

// Manager returns the acting primary manager replica (an alias for
// PrimaryManager — existing callers predate replication and always
// mean "the manager that is actually running the cluster").
func (s *System) Manager() *manager.Manager { return s.PrimaryManager() }

// PrimaryManager returns the local replica currently acting as
// primary — the newest-epoch one if several claim it (a deposed
// replica that has not yet heard the winner's beacon may still say
// yes). With no acting primary it returns the newest-epoch replica,
// so callers polling "who won?" always have a candidate to watch.
func (s *System) PrimaryManager() *manager.Manager {
	var best, fallback *manager.Manager
	var bestEpoch, fbEpoch uint64
	for _, r := range s.replicas() {
		e := r.m.Epoch()
		if fallback == nil || e > fbEpoch {
			fallback, fbEpoch = r.m, e
		}
		if r.m.IsPrimary() && (best == nil || e > bestEpoch) {
			best, bestEpoch = r.m, e
		}
	}
	if best != nil {
		return best
	}
	return fallback
}

// ManagerReplicas returns every locally hosted manager replica in
// rank order (standbys included), for tests and operator tooling.
func (s *System) ManagerReplicas() []*manager.Manager {
	reps := s.replicas()
	out := make([]*manager.Manager, len(reps))
	for i, r := range reps {
		out[i] = r.m
	}
	return out
}

// restartManager is the front ends' process-peer action ("the front
// end detects and restarts a crashed manager", §3.1.3). A cooldown
// keeps multiple front ends from racing to restart it. In a
// multi-process deployment only the process hosting the manager role
// may act — a front-end-only process inferring silence must not spawn
// a second manager of its own.
//
// With replication, the election — not this watchdog — owns primacy:
// dead replicas are respawned as standbys so the replica set stays at
// full strength, and a surviving standby's takeover is what restores
// beacons. Only when every local replica is dead does the first
// respawn boot as an immediate primary, seeded past the local epoch
// high-water mark so its beacons outbid every stub's and supervisor's
// memory of the dead regime.
func (s *System) restartManager() {
	if s.stopped.Load() || !s.cfg.Roles.manager() {
		return
	}
	s.mu.Lock()
	if time.Since(s.lastMgrFix) < 2*s.cfg.BeaconInterval {
		s.mu.Unlock()
		return
	}
	s.lastMgrFix = time.Now()
	s.mu.Unlock()

	var hw uint64
	var dead []int
	live := 0
	for _, r := range s.replicas() {
		// Readable even after the replica's goroutine died: the epoch a
		// killed primary last held is exactly what its replacement's
		// first claim must outbid.
		if e := r.m.Epoch(); e > hw {
			hw = e
		}
		select {
		case <-r.h.Done():
			dead = append(dead, r.rank)
		default:
			live++
		}
	}
	s.mu.Lock()
	if hw > s.mgrEpochHW {
		s.mgrEpochHW = hw
	}
	hw = s.mgrEpochHW
	s.mu.Unlock()
	if len(dead) == 0 {
		return // silence without a corpse: the election owns this
	}
	for i, rank := range dead {
		standby := live > 0 || i > 0
		_ = s.spawnManagerReplica(rank, standby, hw)
	}
}

// KillManager crashes the acting primary manager replica (fault
// injection). Standby replicas are left running — surviving the
// primary's death is their whole job; the election promotes one
// within ElectionTimeout plus its rank stagger.
func (s *System) KillManager() error {
	victim, anyLive := "", ""
	var vEpoch uint64
	for _, r := range s.replicas() {
		select {
		case <-r.h.Done():
			continue
		default:
		}
		if anyLive == "" {
			anyLive = r.name
		}
		if e := r.m.Epoch(); r.m.IsPrimary() && (victim == "" || e > vEpoch) {
			victim, vEpoch = r.name, e
		}
	}
	if victim == "" {
		victim = anyLive // mid-election: kill any live replica
	}
	if victim == "" {
		return fmt.Errorf("core: no manager")
	}
	return s.Kill(victim)
}

// Workers returns the ids of currently tracked worker processes
// (spawned and not yet reaped/killed), sorted.
func (s *System) Workers() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.namesLocked(workerKind)
}

// Caches returns the names of cache partitions hosted by this
// process, sorted.
func (s *System) Caches() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.namesLocked(cacheKind)
}

// WorkerStub returns the live stub for a tracked worker id (nil if
// unknown), giving chaos harnesses access to the per-worker fault
// injection knobs (InjectSlowdown, InjectHang).
func (s *System) WorkerStub(id string) *stub.WorkerStub {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.comps[id]; c != nil && c.kind == workerKind {
		return c.proc.(*stub.WorkerStub)
	}
	return nil
}

// FrontEnds returns the live front-end instances in creation order.
func (s *System) FrontEnds() []*frontend.FrontEnd {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*frontend.FrontEnd, len(s.fes))
	for i, c := range s.fes {
		out[i] = c.proc.(*frontend.FrontEnd)
	}
	return out
}

// CacheNodes returns the cache partition addresses (local and
// remote).
func (s *System) CacheNodes() map[string]san.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]san.Addr, len(s.cacheNodes))
	for k, v := range s.cacheNodes {
		out[k] = v
	}
	return out
}
