package vcache

import (
	"context"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/san"
)

// Message kinds for the cache wire protocol. Cache nodes are plain
// workers reachable over the SAN; the paper notes each Harvest request
// cost a TCP connection — here each request is one SAN round trip, and
// an optional ServiceTime models the measured per-hit cost (§4.4).
const (
	MsgGet    = "cache.get"
	MsgGot    = "cache.got"
	MsgPut    = "cache.put"
	MsgInject = "cache.inject"
	MsgOK     = "cache.ok"
	MsgStats  = "cache.stats"
	MsgStatsR = "cache.stats.reply"
	// MsgHello is the cache service's periodic liveness heartbeat,
	// multicast on the control group so the manager can carry the
	// process-peer duty for cache nodes: silence longer than the TTL
	// means the service crashed and must be restarted (§3.1.3 timeout
	// inference, same as for front ends).
	MsgHello = "cache.hello"
)

// HelloMsg is the MsgHello body.
type HelloMsg struct {
	Name string
	Addr san.Addr
	Node string
}

// GetReq asks for a key. Stale widens the lookup to entries whose TTL
// has passed but which are still resident: the BASE degraded-mode read
// an overloaded front end uses when stale data beats no data.
type GetReq struct {
	Key   string
	Stale bool
}

// GetResp answers a GetReq. Stale marks an entry served past its TTL
// (only possible when the request asked for it).
type GetResp struct {
	Found bool
	Data  []byte
	MIME  string
	Stale bool
}

// PutReq stores content (Put or Inject depending on message kind).
type PutReq struct {
	Key  string
	Data []byte
	MIME string
	TTL  time.Duration
}

// Service hosts one cache partition on a cluster node. It implements
// cluster.Process.
type Service struct {
	// Name is the process id (e.g. "cache0").
	Name string
	// Net and Node place the service's endpoint.
	Net  *san.Network
	Node string
	// Partition is the backing store.
	Partition *Partition
	// ServiceTime, if non-nil, delays each Get response to model
	// per-request service cost (the paper's 27 ms average hit).
	ServiceTime func() time.Duration

	// HeartbeatGroup/HeartbeatInterval, when both set, make Run
	// multicast a HelloMsg on the group every interval so a process
	// peer (the manager) can supervise this service. The platform
	// layer wires these; bare services in unit tests stay silent.
	HeartbeatGroup    string
	HeartbeatInterval time.Duration

	ep *san.Endpoint
}

// NewService constructs a cache service and registers its SAN
// endpoint immediately, so clients can address it as soon as it is
// spawned (no startup race between Spawn and the first request).
func NewService(name string, net *san.Network, node string, part *Partition) *Service {
	s := &Service{Name: name, Net: net, Node: node, Partition: part}
	s.ep = net.Endpoint(s.addr(), 1024)
	return s
}

func (s *Service) addr() san.Addr { return san.Addr{Node: s.Node, Proc: s.Name} }

// Addr returns the service's SAN address.
func (s *Service) Addr() san.Addr { return s.addr() }

// ID implements cluster.Process.
func (s *Service) ID() string { return s.Name }

// Run implements cluster.Process: it serves cache requests until ctx
// is cancelled. If the endpoint is missing (struct-literal
// construction, or a respawn after its node was dropped) it is
// registered here.
func (s *Service) Run(ctx context.Context) error {
	if s.ep == nil || !s.Net.Lookup(s.addr()) {
		s.ep = s.Net.Endpoint(s.addr(), 1024)
	}
	ep := s.ep
	defer ep.Close()
	s.Net.Registry().SetCollector("cache."+s.Name, func(emit func(string, float64)) {
		st := s.Partition.Stats()
		emit("hits", float64(st.Hits))
		emit("misses", float64(st.Misses))
		emit("puts", float64(st.Puts))
		emit("injects", float64(st.Injects))
		emit("evictions", float64(st.Evictions))
		emit("expired", float64(st.Expired))
		emit("used_bytes", float64(st.Used))
		emit("objects", float64(st.Objects))
		emit("hit_rate", st.HitRate())
	})

	var hb <-chan time.Time
	if s.HeartbeatGroup != "" && s.HeartbeatInterval > 0 {
		t := time.NewTicker(s.HeartbeatInterval)
		defer t.Stop()
		hb = t.C
		s.heartbeat(ep) // announce immediately so supervision starts now
	}
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-hb:
			s.heartbeat(ep)
		case msg, ok := <-ep.Inbox():
			if !ok {
				return fmt.Errorf("vcache: %s endpoint closed", s.Name)
			}
			s.handle(ep, msg)
		}
	}
}

func (s *Service) heartbeat(ep *san.Endpoint) {
	ep.Multicast(s.HeartbeatGroup, MsgHello, HelloMsg{
		Name: s.Name,
		Addr: s.addr(),
		Node: s.Node,
	})
}

func (s *Service) handle(ep *san.Endpoint, msg san.Message) {
	switch msg.Kind {
	case MsgGet:
		req, ok := msg.Body.(GetReq)
		if !ok {
			return
		}
		gstart := time.Now()
		if s.ServiceTime != nil {
			if d := s.ServiceTime(); d > 0 {
				time.Sleep(d)
			}
		}
		var (
			entry Entry
			found bool
			stale bool
		)
		if req.Stale {
			entry, stale, found = s.Partition.GetStale(req.Key)
		} else {
			entry, found = s.Partition.Get(req.Key)
		}
		if msg.Trace.Sampled() {
			note := "miss"
			if found {
				note = "hit"
			}
			s.Net.Tracer().Record(obs.Span{
				Trace: msg.Trace, Comp: s.Name, Hop: "cache.serve", Note: note,
				Start: gstart.UnixNano(), Dur: int64(time.Since(gstart)),
			})
		}
		resp := GetResp{Found: found, Data: entry.Data, MIME: entry.MIME, Stale: stale}
		_ = ep.Respond(msg, MsgGot, resp)
	case MsgPut, MsgInject:
		req, ok := msg.Body.(PutReq)
		if !ok {
			msg.Release()
			return
		}
		if msg.Lease != nil {
			// Copy-on-retain: with decode views on, req.Data aliases a
			// pooled receive buffer, and the partition stores data far
			// past this message's lifetime. This is the one copy a put
			// pays; everything upstream was zero-copy.
			req.Data = san.CloneBytes(req.Data)
		}
		if msg.Kind == MsgInject {
			s.Partition.Inject(req.Key, req.Data, req.MIME, req.TTL)
		} else {
			s.Partition.Put(req.Key, req.Data, req.MIME, req.TTL)
		}
		msg.Release()
		_ = ep.Respond(msg, MsgOK, nil)
	case MsgStats:
		_ = ep.Respond(msg, MsgStatsR, s.Partition.Stats())
	}
}

// Client presents a set of cache partitions as one virtual cache: keys
// are consistent-hashed to nodes, and membership changes re-hash
// automatically. It shares its owner's SAN endpoint (whose receive
// loop must route replies via DeliverReply).
type Client struct {
	ep      *san.Endpoint
	ring    *Ring
	addrs   map[string]san.Addr
	mu      chan struct{} // 1-token semaphore guarding addrs+ring mutation
	Timeout time.Duration
}

// NewClient creates a virtual-cache client over an endpoint.
func NewClient(ep *san.Endpoint) *Client {
	c := &Client{
		ep:      ep,
		ring:    NewRing(0),
		addrs:   make(map[string]san.Addr),
		mu:      make(chan struct{}, 1),
		Timeout: 2 * time.Second,
	}
	c.mu <- struct{}{}
	return c
}

// AddNode registers a cache partition under a logical name.
func (c *Client) AddNode(name string, addr san.Addr) {
	<-c.mu
	c.addrs[name] = addr
	c.ring.Add(name)
	c.mu <- struct{}{}
}

// RemoveNode drops a partition; its key range re-hashes to survivors.
func (c *Client) RemoveNode(name string) {
	<-c.mu
	delete(c.addrs, name)
	c.ring.Remove(name)
	c.mu <- struct{}{}
}

// Nodes returns the current partition names.
func (c *Client) Nodes() []string { return c.ring.Nodes() }

// owner resolves the partition address for a key.
func (c *Client) owner(key string) (san.Addr, bool) {
	node := c.ring.Lookup(key)
	if node == "" {
		return san.Addr{}, false
	}
	<-c.mu
	addr, ok := c.addrs[node]
	c.mu <- struct{}{}
	return addr, ok
}

// Get fetches a key from the virtual cache. A missing partition or
// timeout reads as a miss: the cache is an optimization, never a
// correctness dependency (BASE). The returned data is owned by the
// caller (copied out of any pooled receive buffer); holders that can
// bound the data's lifetime should prefer GetView and skip the copy.
func (c *Client) Get(ctx context.Context, key string) (data []byte, mime string, found bool) {
	data, mime, release, found := c.GetView(ctx, key)
	if release != nil {
		data = san.CloneBytes(data)
		release()
	}
	return data, mime, found
}

// GetView is the zero-copy Get: when the reply arrived as a decode
// view, data aliases a pooled receive buffer and release is non-nil —
// the caller must finish reading (or copy) before calling release, must
// call it exactly once, and must not touch data afterwards. A nil
// release means data is already owned (a body the codec copied, or a
// miss). Front ends that write the bytes straight to a client socket
// use this to serve a cache hit without any body copy in this process.
func (c *Client) GetView(ctx context.Context, key string) (data []byte, mime string, release func(), found bool) {
	data, mime, _, release, found = c.getView(ctx, GetReq{Key: key})
	return data, mime, release, found
}

// GetStaleView is GetView with the BASE degraded-mode widening: the
// partition may answer with an entry whose TTL has passed but which is
// still resident (stale=true), per the paper's stale-data-beats-no-data
// argument. An overloaded front end uses this to keep answering without
// spending worker capacity; release semantics match GetView.
func (c *Client) GetStaleView(ctx context.Context, key string) (data []byte, mime string, stale bool, release func(), found bool) {
	return c.getView(ctx, GetReq{Key: key, Stale: true})
}

func (c *Client) getView(ctx context.Context, req GetReq) (data []byte, mime string, stale bool, release func(), found bool) {
	addr, ok := c.owner(req.Key)
	if !ok {
		return nil, "", false, nil, false
	}
	cctx, cancel := context.WithTimeout(ctx, c.Timeout)
	defer cancel()
	resp, err := c.ep.Call(cctx, addr, MsgGet, req)
	if err != nil {
		return nil, "", false, nil, false
	}
	got, ok := resp.Body.(GetResp)
	if !ok || !got.Found {
		resp.Release()
		return nil, "", false, nil, false
	}
	if resp.Lease != nil {
		release = resp.Lease.Release
	}
	return got.Data, got.MIME, got.Stale, release, true
}

// Put stores original content; errors are swallowed (best effort).
func (c *Client) Put(ctx context.Context, key string, data []byte, mime string, ttl time.Duration) {
	c.put(ctx, MsgPut, key, data, mime, ttl)
}

// Inject stores post-transformation content.
func (c *Client) Inject(ctx context.Context, key string, data []byte, mime string, ttl time.Duration) {
	c.put(ctx, MsgInject, key, data, mime, ttl)
}

func (c *Client) put(ctx context.Context, kind, key string, data []byte, mime string, ttl time.Duration) {
	addr, ok := c.owner(key)
	if !ok {
		return
	}
	cctx, cancel := context.WithTimeout(ctx, c.Timeout)
	defer cancel()
	_, _ = c.ep.Call(cctx, addr, kind, PutReq{Key: key, Data: data, MIME: mime, TTL: ttl})
}

// StatsOf fetches one partition's stats (for the monitor).
func (c *Client) StatsOf(ctx context.Context, name string) (Stats, error) {
	<-c.mu
	addr, ok := c.addrs[name]
	c.mu <- struct{}{}
	if !ok {
		return Stats{}, fmt.Errorf("vcache: unknown partition %q", name)
	}
	cctx, cancel := context.WithTimeout(ctx, c.Timeout)
	defer cancel()
	resp, err := c.ep.Call(cctx, addr, MsgStats, nil)
	if err != nil {
		return Stats{}, err
	}
	st, ok := resp.Body.(Stats)
	if !ok {
		return Stats{}, fmt.Errorf("vcache: bad stats reply")
	}
	return st, nil
}
