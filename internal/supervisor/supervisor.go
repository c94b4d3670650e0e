// Package supervisor implements the per-process supervisor daemon that
// makes the paper's process-peer supervision (§2, §3.2) work across OS
// process boundaries. Every core.Start process runs one: it announces
// itself on the SAN control group with periodic hello heartbeats
// (address-keyed, exactly like cache services) and executes
// restart/kill/spawn/disable/enable commands sent to it as SAN calls.
//
// The manager stays the brain — it watches heartbeats and decides what
// must be restarted — but the muscle is now location-transparent: when
// a component's process-peer duty points at another OS process, the
// manager delegates the restart to that process's supervisor instead
// of erroring out locally. This is the per-node resource/failover
// manager of the Microsoft Cluster Service design (Vogels et al.)
// grafted onto the SNS soft-state discipline: the supervisor keeps no
// durable state, re-announces itself from the very next heartbeat
// after a restart, and executes commands idempotently so a retried
// delivery can never restart a component twice.
package supervisor

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/san"
)

// Message kinds. MsgHello is multicast on the configured heartbeat
// group (the platform wires it to the SNS control group); MsgCmd /
// MsgAck are the unicast command protocol.
const (
	MsgHello = "sup.hello" // supervisor -> group: HelloMsg
	MsgCmd   = "sup.cmd"   // manager/monitor -> supervisor (Call): Command
	MsgAck   = "sup.ack"   // supervisor -> caller (reply): Ack
)

// Command operations.
const (
	// OpRestart stops the named component hosted by this supervisor's
	// process and respawns it under the same name: a front end or cache
	// partition its watcher found silent (a cache comes back empty, but
	// its address and key range return), or a worker being hot-upgraded
	// (same id and class).
	OpRestart = "restart"
	// OpSpawnWorker starts a fresh worker of the target class in this
	// process (cross-process replacement spawns).
	OpSpawnWorker = "spawn-worker"
	// OpKill crashes the named component without respawn — remote
	// fault injection for multi-process chaos.
	OpKill = "kill"
	// OpDisable / OpEnable forward a hot-upgrade disable/enable control
	// message to the named local component (§2.1).
	OpDisable = "disable"
	OpEnable  = "enable"
)

// HelloMsg is the supervisor's heartbeat body. Prefix is the node-name
// prefix of the process it governs: a manager resolving which
// supervisor owns a dead component matches the component's node name
// against the longest advertised prefix (Owner).
type HelloMsg struct {
	Name   string
	Addr   san.Addr
	Node   string
	Prefix string
}

// Owner resolves which supervisor owns a node by longest advertised
// prefix — the single ownership rule every resolver (manager restart
// sweeps, monitor upgrade waves) must share, or two watchers could
// delegate the same node's duties to different daemons.
func Owner(node string, sups map[string]HelloMsg) (HelloMsg, bool) {
	var best HelloMsg
	bestLen := -1
	for _, hb := range sups {
		if strings.HasPrefix(node, hb.Prefix) && len(hb.Prefix) > bestLen {
			best, bestLen = hb, len(hb.Prefix)
		}
	}
	return best, bestLen >= 0
}

// Command asks a supervisor to act. ID must be unique per Origin for
// one incident: retries of the same incident reuse the ID, so a
// command that executed but whose ack was lost is answered from the
// supervisor's result cache instead of being executed again.
//
// Epoch is the issuing manager's election epoch. A supervisor tracks
// the highest epoch it has observed (from commands and from beacons,
// via Config.EpochFrom) and refuses commands stamped with an older
// one — a deposed primary that has not yet heard the new primary's
// beacon can therefore never double-restart a component. Epoch 0
// means "no election claim" and is always accepted (operator tooling,
// the monitor's upgrade waves).
type Command struct {
	ID     uint64
	Origin string // issuing component's address, for idempotency scoping
	Op     string
	Target string // component name / worker id / class (OpSpawnWorker)
	Epoch  uint64 // issuing manager's election epoch; 0 = unfenced
}

// Ack answers a Command.
type Ack struct {
	ID  uint64
	OK  bool
	Err string // empty when OK
}

// Host is the supervisor's lever on its own process — the platform
// layer (core.System) implements it. All methods act locally: a
// component another process hosts is that process's supervisor's
// business.
type Host interface {
	// Restart stops a hosted component and respawns it by name.
	Restart(name string) error
	// Kill crashes a hosted component without respawn.
	Kill(name string) error
	// Addr resolves a live hosted component's SAN address (for
	// forwarded disable/enable control messages).
	Addr(name string) (san.Addr, bool)
	// SpawnWorker starts a fresh worker of class; overflow selects the
	// overflow pool, and a full dedicated pool recruits it anyway.
	SpawnWorker(class string, overflow bool) error
}

// Config assembles a supervisor.
type Config struct {
	Name string // process id; default "sup"
	Node string
	Net  *san.Network
	// Prefix is the hosting process's node-name prefix, advertised in
	// hellos so managers can resolve ownership.
	Prefix string
	// Host executes commands. A nil Host acks every command with an
	// error (useful only in tests).
	Host Host
	// HeartbeatGroup/HeartbeatInterval, when both set, make Run
	// multicast a HelloMsg every interval. The platform wires the
	// group to stub.GroupControl.
	HeartbeatGroup    string
	HeartbeatInterval time.Duration
	// DisableKind/EnableKind are the control message kinds forwarded
	// to components for OpDisable/OpEnable (the platform wires
	// stub.MsgDisable/stub.MsgEnable).
	DisableKind string
	EnableKind  string
	// EpochFrom, when set, makes Run join HeartbeatGroup and extract
	// an election epoch from every group message it sees (the platform
	// wires a closure that recognizes manager beacons — the supervisor
	// cannot import the stub package itself). The highest epoch
	// observed fences stale-epoch commands.
	EpochFrom func(kind string, body any) (uint64, bool)
	// ResultRetention is how long a completed command's result is
	// immune from cache eviction (so an origin still retrying that id
	// is guaranteed an idempotent answer). Default 5s; tests compress.
	ResultRetention time.Duration
	// ResultCacheCap overrides the result cache's soft capacity bound
	// (default resultCacheCap). Tests shrink it.
	ResultCacheCap int
}

// Stats counts supervisor activity.
type Stats struct {
	Commands   uint64 // commands executed (excluding duplicates)
	Dupes      uint64 // duplicate deliveries answered from the cache
	Failures   uint64 // commands whose execution returned an error
	Hellos     uint64 // heartbeats sent
	StaleEpoch uint64 // commands refused for carrying a deposed epoch
}

// Result cache bounds. The soft cap (resultCacheCap) is the steady-
// state size; entries younger than ResultRetention survive it, because
// evicting a result an origin is still retrying would re-execute the
// command — the exact bug idempotency exists to prevent. The hard cap
// is the memory backstop a pathological storm can push the cache to
// before age no longer matters.
const (
	resultCacheCap         = 512
	resultCacheHardFactor  = 8
	defaultResultRetention = 5 * time.Second
)

// Supervisor is the per-process daemon. It implements cluster.Process.
type Supervisor struct {
	cfg Config
	ep  *san.Endpoint

	nextID atomic.Uint64
	epoch  atomic.Uint64 // highest election epoch observed

	mu    sync.Mutex
	done  map[string]doneEntry // origin#id -> result, for idempotent redelivery
	order []string             // FIFO eviction order for done

	commands   atomic.Uint64
	dupes      atomic.Uint64
	failures   atomic.Uint64
	hellos     atomic.Uint64
	staleEpoch atomic.Uint64
}

// doneEntry is one cached command result plus its completion time —
// the age gate eviction keys on.
type doneEntry struct {
	ack Ack
	at  time.Time
}

// New creates a supervisor and eagerly registers its SAN endpoint so
// it is addressable as soon as it is spawned.
func New(cfg Config) *Supervisor {
	if cfg.Name == "" {
		cfg.Name = "sup"
	}
	if cfg.ResultRetention <= 0 {
		cfg.ResultRetention = defaultResultRetention
	}
	if cfg.ResultCacheCap <= 0 {
		cfg.ResultCacheCap = resultCacheCap
	}
	s := &Supervisor{cfg: cfg, done: make(map[string]doneEntry)}
	s.ep = cfg.Net.Endpoint(s.addr(), 256)
	return s
}

func (s *Supervisor) addr() san.Addr { return san.Addr{Node: s.cfg.Node, Proc: s.cfg.Name} }

// Addr returns the supervisor's SAN address.
func (s *Supervisor) Addr() san.Addr { return s.addr() }

// Prefix returns the node-name prefix this supervisor governs.
func (s *Supervisor) Prefix() string { return s.cfg.Prefix }

// ID implements cluster.Process.
func (s *Supervisor) ID() string { return s.cfg.Name }

// Stats returns a snapshot of counters.
func (s *Supervisor) Stats() Stats {
	return Stats{
		Commands:   s.commands.Load(),
		Dupes:      s.dupes.Load(),
		Failures:   s.failures.Load(),
		Hellos:     s.hellos.Load(),
		StaleEpoch: s.staleEpoch.Load(),
	}
}

// Epoch returns the highest election epoch this supervisor has seen.
func (s *Supervisor) Epoch() uint64 { return s.epoch.Load() }

// ObserveEpoch raises the supervisor's epoch watermark (monotonic).
func (s *Supervisor) ObserveEpoch(e uint64) {
	for {
		cur := s.epoch.Load()
		if e <= cur || s.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// Hello builds the heartbeat body this supervisor announces.
func (s *Supervisor) Hello() HelloMsg {
	return HelloMsg{Name: s.cfg.Name, Addr: s.addr(), Node: s.cfg.Node, Prefix: s.cfg.Prefix}
}

// Run implements cluster.Process: heartbeat and serve commands until
// ctx is done.
func (s *Supervisor) Run(ctx context.Context) error {
	if s.ep == nil || !s.cfg.Net.Lookup(s.addr()) {
		s.ep = s.cfg.Net.Endpoint(s.addr(), 256)
	}
	ep := s.ep
	defer ep.Close()

	var hb <-chan time.Time
	if s.cfg.HeartbeatGroup != "" && s.cfg.HeartbeatInterval > 0 {
		t := time.NewTicker(s.cfg.HeartbeatInterval)
		defer t.Stop()
		hb = t.C
		s.heartbeat(ep) // announce immediately so delegation works now
	}
	if s.cfg.EpochFrom != nil && s.cfg.HeartbeatGroup != "" {
		// Observe election epochs from the control group's beacons so a
		// deposed primary's commands are fenced even before the new
		// primary sends us anything directly.
		ep.Join(s.cfg.HeartbeatGroup)
	}
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-hb:
			s.heartbeat(ep)
		case msg, ok := <-ep.Inbox():
			if !ok {
				return fmt.Errorf("supervisor: %s endpoint closed", s.cfg.Name)
			}
			if msg.Reply {
				// Acks for Invoke calls issued through this endpoint.
				ep.DeliverReply(msg)
				continue
			}
			if msg.Kind != MsgCmd {
				if s.cfg.EpochFrom != nil {
					if e, ok := s.cfg.EpochFrom(msg.Kind, msg.Body); ok {
						s.ObserveEpoch(e)
					}
				}
				msg.Release()
				continue
			}
			cmd, ok := msg.Body.(Command)
			if !ok {
				continue
			}
			ack := s.dispatch(cmd)
			_ = ep.Respond(msg, MsgAck, ack)
		}
	}
}

func (s *Supervisor) heartbeat(ep *san.Endpoint) {
	s.hellos.Add(1)
	ep.Multicast(s.cfg.HeartbeatGroup, MsgHello, s.Hello())
}

// dispatch executes one command at most once: a duplicate delivery
// (same origin and id) of a command that already SUCCEEDED is
// answered from the result cache without touching the host again —
// the case idempotency exists for, a success whose ack was lost.
// Failures are deliberately NOT cached: a failed execution had no
// effect worth protecting, and pinning a transient refusal (say, a
// momentary capacity gap) against an id the caller reuses across
// retries would turn one bad moment into a permanent one.
//
// Eviction is age-gated, not pure FIFO: a result younger than
// ResultRetention may still have its origin retrying that id, and
// evicting it would re-execute the command on redelivery. Only when
// the cache balloons past the hard cap does memory safety outrank the
// retention promise.
func (s *Supervisor) dispatch(cmd Command) Ack {
	if cmd.Epoch != 0 {
		if cur := s.epoch.Load(); cmd.Epoch < cur {
			s.staleEpoch.Add(1)
			return Ack{ID: cmd.ID, Err: fmt.Sprintf("supervisor: stale epoch %d (current %d)", cmd.Epoch, cur)}
		}
		s.ObserveEpoch(cmd.Epoch)
	}
	key := cmd.Origin + "#" + fmt.Sprint(cmd.ID)
	s.mu.Lock()
	if e, seen := s.done[key]; seen {
		s.mu.Unlock()
		s.dupes.Add(1)
		return e.ack
	}
	s.mu.Unlock()

	ack := s.execute(cmd)
	if !ack.OK {
		return ack
	}

	now := time.Now()
	s.mu.Lock()
	if _, seen := s.done[key]; !seen {
		s.done[key] = doneEntry{ack: ack, at: now}
		s.order = append(s.order, key)
		hardCap := s.cfg.ResultCacheCap * resultCacheHardFactor
		for len(s.order) > s.cfg.ResultCacheCap {
			oldest := s.done[s.order[0]]
			if now.Sub(oldest.at) < s.cfg.ResultRetention && len(s.order) <= hardCap {
				break // still inside its retry window; keep it
			}
			delete(s.done, s.order[0])
			s.order = s.order[1:]
		}
	}
	s.mu.Unlock()
	return ack
}

func (s *Supervisor) execute(cmd Command) Ack {
	s.commands.Add(1)
	var err error
	if s.cfg.Host == nil {
		err = fmt.Errorf("supervisor: no host wired")
	} else {
		switch cmd.Op {
		case OpRestart:
			err = s.cfg.Host.Restart(cmd.Target)
		case OpSpawnWorker:
			err = s.cfg.Host.SpawnWorker(cmd.Target, false)
		case OpKill:
			err = s.cfg.Host.Kill(cmd.Target)
		case OpDisable:
			err = s.forwardControl(cmd.Target, s.cfg.DisableKind)
		case OpEnable:
			err = s.forwardControl(cmd.Target, s.cfg.EnableKind)
		default:
			err = fmt.Errorf("supervisor: unknown op %q", cmd.Op)
		}
	}
	if err != nil {
		s.failures.Add(1)
		return Ack{ID: cmd.ID, Err: err.Error()}
	}
	return Ack{ID: cmd.ID, OK: true}
}

// forwardControl sends a hot-upgrade control message to a hosted
// component resolved by name.
func (s *Supervisor) forwardControl(name, kind string) error {
	if kind == "" {
		return fmt.Errorf("supervisor: no control kind configured")
	}
	addr, ok := s.cfg.Host.Addr(name)
	if !ok {
		return fmt.Errorf("supervisor: unknown component %s", name)
	}
	return s.ep.Send(addr, kind, nil)
}

// NextCommandID mints an id for a new incident issued from this
// process (retries of the same incident must reuse the id).
func (s *Supervisor) NextCommandID() uint64 { return s.nextID.Add(1) }

// Invoke sends a command to a peer supervisor and waits for its ack —
// the client half of the protocol, used by selftests and operator
// tooling. The supervisor's Run loop must be live (it routes the reply
// back into the pending call). An ack with OK=false is returned with a
// nil error: the command was delivered and refused, which is an answer.
func (s *Supervisor) Invoke(ctx context.Context, to san.Addr, cmd Command) (Ack, error) {
	if cmd.Origin == "" {
		cmd.Origin = s.addr().String()
	}
	if cmd.ID == 0 {
		cmd.ID = s.NextCommandID()
	}
	resp, err := s.ep.Call(ctx, to, MsgCmd, cmd)
	if err != nil {
		return Ack{}, err
	}
	ack, ok := resp.Body.(Ack)
	if !ok {
		return Ack{}, fmt.Errorf("supervisor: malformed ack %T", resp.Body)
	}
	return ack, nil
}
