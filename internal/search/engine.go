package search

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/san"
)

// FailureMode selects how the engine handles node loss (§3.2).
type FailureMode int

const (
	// FastRestart is the HotBot production design: one copy of each
	// partition; a lost node temporarily shrinks the searchable
	// corpus, and fast restart brings it back.
	FastRestart FailureMode = iota
	// CrossMount is the original Inktomi design: every partition is
	// reachable from two nodes, so data availability stays at 100%
	// with graceful performance degradation.
	CrossMount
)

// String renders the mode.
func (m FailureMode) String() string {
	if m == CrossMount {
		return "cross-mount"
	}
	return "fast-restart"
}

// Wire protocol.
const (
	msgQuery = "shard.query"
	msgHits  = "shard.hits"
)

type queryReq struct {
	Query string
	K     int
}

type queryResp struct {
	Hits []Hit
	Docs int
}

// shardService serves one partition on one node. In CrossMount mode
// the same *Shard is served by a second service on a different node
// (the replica "cross-mounts" the shard's disk).
type shardService struct {
	name  string
	node  string
	net   *san.Network
	shard *Shard
	ep    *san.Endpoint
	// QueryDelay models per-query disk/CPU cost, if set.
	queryDelay time.Duration
}

func newShardService(name, node string, net *san.Network, shard *Shard, delay time.Duration) *shardService {
	s := &shardService{name: name, node: node, net: net, shard: shard, queryDelay: delay}
	s.ep = net.Endpoint(san.Addr{Node: node, Proc: name}, 1024)
	return s
}

func (s *shardService) ID() string { return s.name }

func (s *shardService) addr() san.Addr { return san.Addr{Node: s.node, Proc: s.name} }

func (s *shardService) Run(ctx context.Context) error {
	if s.ep == nil || !s.net.Lookup(s.addr()) {
		s.ep = s.net.Endpoint(s.addr(), 1024)
	}
	ep := s.ep
	defer ep.Close()
	for {
		select {
		case <-ctx.Done():
			return nil
		case msg, ok := <-ep.Inbox():
			if !ok {
				return fmt.Errorf("search: %s endpoint closed", s.name)
			}
			if msg.Kind != msgQuery {
				continue
			}
			req, ok := msg.Body.(queryReq)
			if !ok {
				continue
			}
			if s.queryDelay > 0 {
				time.Sleep(s.queryDelay)
			}
			hits := s.shard.Search(req.Query, req.K)
			_ = ep.Respond(msg, msgHits, queryResp{Hits: hits, Docs: s.shard.Docs()})
		}
	}
}

// Config assembles a search engine deployment.
type Config struct {
	Net     *san.Network
	Cluster *cluster.Cluster
	// Partitions is the number of index partitions (the paper's
	// HotBot ran 26 nodes; tests use fewer).
	Partitions int
	Mode       FailureMode
	Seed       int64
	// QueryTimeout bounds each per-shard query.
	QueryTimeout time.Duration
	// QueryDelay models per-shard query cost.
	QueryDelay time.Duration
	// CacheSize bounds the recent-results cache (queries).
	CacheSize int
}

// QueryResult is a collated answer.
type QueryResult struct {
	Query string
	Hits  []Hit
	// DocsSearched / TotalDocs expose graceful degradation: on a
	// node loss in FastRestart mode, DocsSearched < TotalDocs.
	DocsSearched int
	TotalDocs    int
	Partial      bool
	FromCache    bool
	ShardsAsked  int
	ShardsAlive  int
}

// Engine is a deployed, queryable search service.
type Engine struct {
	cfg    Config
	total  int
	ep     *san.Endpoint
	pump   sync.Once
	shards []shardHosting

	mu    sync.Mutex
	cache *resultCache
	stats EngineStats
}

// EngineStats counts engine activity.
type EngineStats struct {
	Queries          uint64
	CacheHits        uint64
	PartialAnswers   uint64
	ShardTimeouts    uint64
	ReplicaFallbacks uint64
}

type shardHosting struct {
	shard   *Shard
	primary san.Addr
	replica san.Addr // zero unless CrossMount
}

// Deploy partitions the corpus, builds shards, and spawns shard
// services across the cluster's dedicated nodes (one partition per
// node, like HotBot's workers that are "bound to particular
// machines").
func Deploy(cfg Config, docs []Doc) (*Engine, error) {
	if cfg.Partitions <= 0 {
		cfg.Partitions = 4
	}
	if cfg.QueryTimeout <= 0 {
		cfg.QueryTimeout = 2 * time.Second
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 1024
	}
	nodes := cfg.Cluster.Nodes()
	var hosts []string
	for _, n := range nodes {
		if !n.Overflow && n.Alive {
			hosts = append(hosts, n.ID)
		}
	}
	if len(hosts) < cfg.Partitions {
		return nil, fmt.Errorf("search: %d partitions need %d nodes, have %d",
			cfg.Partitions, cfg.Partitions, len(hosts))
	}
	parts := Partition(docs, cfg.Partitions, cfg.Seed)
	e := &Engine{cfg: cfg, total: len(docs), cache: newResultCache(cfg.CacheSize)}
	for i, part := range parts {
		shard := BuildShard(i, part)
		primaryNode := hosts[i%len(hosts)]
		name := fmt.Sprintf("shard%d", i)
		svc := newShardService(name, primaryNode, cfg.Net, shard, cfg.QueryDelay)
		if _, err := cfg.Cluster.Spawn(primaryNode, svc); err != nil {
			return nil, err
		}
		hosting := shardHosting{shard: shard, primary: svc.addr()}
		if cfg.Mode == CrossMount {
			// The replica serves the same shard from the next node
			// over — the cross-mounted-disk arrangement.
			replicaNode := hosts[(i+1)%len(hosts)]
			rname := fmt.Sprintf("shard%d.r", i)
			rsvc := newShardService(rname, replicaNode, cfg.Net, shard, cfg.QueryDelay)
			if _, err := cfg.Cluster.Spawn(replicaNode, rsvc); err != nil {
				return nil, err
			}
			hosting.replica = rsvc.addr()
		}
		e.shards = append(e.shards, hosting)
	}
	e.ep = cfg.Net.Endpoint(san.Addr{Node: "hotbot-fe", Proc: "collator"}, 4096)
	return e, nil
}

// startPump launches the reply router once.
func (e *Engine) startPump() {
	e.pump.Do(func() {
		go func() {
			for msg := range e.ep.Inbox() {
				e.ep.DeliverReply(msg)
			}
		}()
	})
}

// Stats returns engine counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// TotalDocs returns the corpus size at deployment.
func (e *Engine) TotalDocs() int { return e.total }

// Query fans the query out to every partition in parallel, collates
// the top k, and caches the result for incremental delivery.
func (e *Engine) Query(ctx context.Context, query string, k int) QueryResult {
	e.startPump()
	e.mu.Lock()
	e.stats.Queries++
	if cached, ok := e.cache.get(query); ok {
		e.stats.CacheHits++
		e.mu.Unlock()
		hits := cached.Hits
		if len(hits) > k {
			hits = hits[:k]
		}
		out := *cached
		out.Hits = hits
		out.FromCache = true
		return out
	}
	e.mu.Unlock()

	type shardAnswer struct {
		resp     queryResp
		ok       bool
		fellBack bool
	}
	answers := make([]shardAnswer, len(e.shards))
	var wg sync.WaitGroup
	for i, h := range e.shards {
		i, h := i, h
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, ok := e.askShard(ctx, h.primary, query, k)
			fellBack := false
			if !ok && !h.replica.IsZero() {
				resp, ok = e.askShard(ctx, h.replica, query, k)
				fellBack = ok
			}
			answers[i] = shardAnswer{resp: resp, ok: ok, fellBack: fellBack}
		}()
	}
	wg.Wait()

	lists := make([][]Hit, 0, len(answers))
	searched := 0
	alive := 0
	for _, a := range answers {
		if !a.ok {
			continue
		}
		alive++
		searched += a.resp.Docs
		lists = append(lists, a.resp.Hits)
	}
	res := QueryResult{
		Query:        query,
		Hits:         MergeHits(lists, k),
		DocsSearched: searched,
		TotalDocs:    e.total,
		Partial:      alive < len(e.shards),
		ShardsAsked:  len(e.shards),
		ShardsAlive:  alive,
	}
	e.mu.Lock()
	if res.Partial {
		e.stats.PartialAnswers++
	}
	for _, a := range answers {
		if !a.ok {
			e.stats.ShardTimeouts++
		}
		if a.fellBack {
			e.stats.ReplicaFallbacks++
		}
	}
	e.cache.put(query, &res)
	e.mu.Unlock()
	return res
}

func (e *Engine) askShard(ctx context.Context, addr san.Addr, query string, k int) (queryResp, bool) {
	cctx, cancel := context.WithTimeout(ctx, e.cfg.QueryTimeout)
	defer cancel()
	msg, err := e.ep.Call(cctx, addr, msgQuery, queryReq{Query: query, K: k})
	if err != nil {
		return queryResp{}, false
	}
	resp, ok := msg.Body.(queryResp)
	return resp, ok
}

// Page serves result pages from the recent-results cache — the
// "integrated cache of recent searches, for incremental delivery"
// (Table 1). Page numbering is 1-based; ok is false when the query is
// not cached (caller should re-Query).
func (e *Engine) Page(query string, page, pageSize int) (hits []Hit, ok bool) {
	if page < 1 || pageSize <= 0 {
		return nil, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	res, found := e.cache.get(query)
	if !found {
		return nil, false
	}
	start := (page - 1) * pageSize
	if start >= len(res.Hits) {
		return nil, true
	}
	end := start + pageSize
	if end > len(res.Hits) {
		end = len(res.Hits)
	}
	return res.Hits[start:end], true
}

// resultCache is a small LRU of recent query results.
type resultCache struct {
	cap   int
	order []string
	m     map[string]*QueryResult
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{cap: capacity, m: make(map[string]*QueryResult)}
}

func (c *resultCache) get(q string) (*QueryResult, bool) {
	res, ok := c.m[q]
	return res, ok
}

func (c *resultCache) put(q string, res *QueryResult) {
	if _, exists := c.m[q]; !exists {
		c.order = append(c.order, q)
		if len(c.order) > c.cap {
			oldest := c.order[0]
			c.order = c.order[1:]
			delete(c.m, oldest)
		}
	}
	c.m[q] = res
}

// RenderResults produces the dynamic-HTML result page (the paper's
// Tcl-macro presentation layer, Table 1's "dynamic HTML generation").
func RenderResults(res QueryResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<html><head><title>HotBot: %s</title></head><body>\n", res.Query)
	fmt.Fprintf(&b, "<h1>Results for %q</h1>\n", res.Query)
	if res.Partial {
		fmt.Fprintf(&b, "<p><i>Partial results: searched %d of %d documents.</i></p>\n",
			res.DocsSearched, res.TotalDocs)
	}
	b.WriteString("<ol>\n")
	for _, h := range res.Hits {
		fmt.Fprintf(&b, `<li><a href="http://doc%d.example/">%s</a> <small>(%.2f)</small></li>`+"\n",
			h.Doc, h.Title, h.Score)
	}
	b.WriteString("</ol></body></html>\n")
	return b.String()
}
