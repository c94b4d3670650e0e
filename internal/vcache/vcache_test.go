package vcache

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cluster"
	"repro/internal/san"
	"repro/internal/san/santest"
)

func TestPartitionGetPut(t *testing.T) {
	p := NewPartition(1<<20, nil)
	if _, ok := p.Get("x"); ok {
		t.Fatal("hit on empty cache")
	}
	p.Put("x", []byte("hello"), "text/html", 0)
	e, ok := p.Get("x")
	if !ok || string(e.Data) != "hello" || e.MIME != "text/html" {
		t.Fatalf("entry = %+v, %v", e, ok)
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", st.HitRate())
	}
}

func TestPartitionLRUEviction(t *testing.T) {
	p := NewPartition(100, nil)
	// Each entry is 10 bytes data + 2 bytes key = 12 bytes.
	for i := 0; i < 8; i++ {
		p.Put(fmt.Sprintf("k%d", i), make([]byte, 10), "b", 0)
	}
	if p.Used() > 100 {
		t.Fatalf("budget exceeded: %d", p.Used())
	}
	// Touch k0 so k1 becomes LRU, then overflow.
	p.Get("k0")
	p.Put("k9", make([]byte, 10), "b", 0)
	if _, ok := p.Get("k0"); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := p.Get("k1"); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if p.Stats().Evictions == 0 {
		t.Fatal("evictions not counted")
	}
}

func TestPartitionBudgetNeverExceeded(t *testing.T) {
	// Property: no sequence of puts pushes Used past the budget.
	p := NewPartition(1000, nil)
	check := func(keys []string, sizes []uint8) bool {
		for i, k := range keys {
			if k == "" {
				continue
			}
			size := 0
			if i < len(sizes) {
				size = int(sizes[i])
			}
			p.Put(k, make([]byte, size), "b", 0)
			if p.Used() > 1000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionOversizeObjectIgnored(t *testing.T) {
	p := NewPartition(100, nil)
	p.Put("big", make([]byte, 200), "b", 0)
	if p.Len() != 0 {
		t.Fatal("oversized object cached")
	}
}

func TestPartitionTTL(t *testing.T) {
	now := time.Unix(0, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	p := NewPartition(1<<20, clock)
	p.Put("x", []byte("v"), "b", time.Second)
	if _, ok := p.Get("x"); !ok {
		t.Fatal("fresh entry missing")
	}
	mu.Lock()
	now = now.Add(2 * time.Second)
	mu.Unlock()
	if _, ok := p.Get("x"); ok {
		t.Fatal("expired entry returned")
	}
	if p.Stats().Expired != 1 {
		t.Fatalf("expired count = %d", p.Stats().Expired)
	}
}

func TestPartitionUpdateReplaces(t *testing.T) {
	p := NewPartition(1000, nil)
	p.Put("k", make([]byte, 100), "a", 0)
	p.Put("k", make([]byte, 50), "b", 0)
	if p.Len() != 1 {
		t.Fatalf("Len = %d", p.Len())
	}
	e, _ := p.Get("k")
	if len(e.Data) != 50 || e.MIME != "b" {
		t.Fatalf("update not applied: %d bytes %s", len(e.Data), e.MIME)
	}
	if p.Used() != 50+1 {
		t.Fatalf("Used = %d after replace", p.Used())
	}
}

func TestPartitionRemoveFlush(t *testing.T) {
	p := NewPartition(1000, nil)
	p.Put("a", []byte("1"), "b", 0)
	p.Put("b", []byte("2"), "b", 0)
	if !p.Remove("a") || p.Remove("a") {
		t.Fatal("Remove semantics broken")
	}
	p.Flush()
	if p.Len() != 0 || p.Used() != 0 {
		t.Fatal("Flush incomplete")
	}
}

func TestPartitionInjectCounted(t *testing.T) {
	p := NewPartition(1000, nil)
	p.Inject("distilled", []byte("x"), "image/sgif", 0)
	if p.Stats().Injects != 1 || p.Stats().Puts != 0 {
		t.Fatalf("stats = %+v", p.Stats())
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing(128)
	nodes := []string{"c0", "c1", "c2", "c3"}
	for _, n := range nodes {
		r.Add(n)
	}
	counts := map[string]int{}
	const keys = 20000
	for i := 0; i < keys; i++ {
		counts[r.Lookup(fmt.Sprintf("key-%d", i))]++
	}
	want := float64(keys) / float64(len(nodes))
	for _, n := range nodes {
		dev := math.Abs(float64(counts[n])-want) / want
		if dev > 0.35 {
			t.Fatalf("node %s owns %d keys (%.0f%% off fair share)", n, counts[n], dev*100)
		}
	}
}

func TestRingMonotoneRemapping(t *testing.T) {
	// Property: removing one node only remaps keys it owned.
	r := NewRing(64)
	for _, n := range []string{"c0", "c1", "c2", "c3"} {
		r.Add(n)
	}
	before := map[string]string{}
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("key-%d", i)
		before[k] = r.Lookup(k)
	}
	r.Remove("c2")
	for k, owner := range before {
		after := r.Lookup(k)
		if owner != "c2" && after != owner {
			t.Fatalf("key %s moved %s -> %s though %s survived", k, owner, after, owner)
		}
		if owner == "c2" && after == "c2" {
			t.Fatalf("key %s still on removed node", k)
		}
	}
}

func TestRingAddMonotone(t *testing.T) {
	r := NewRing(64)
	r.Add("c0")
	r.Add("c1")
	before := map[string]string{}
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("key-%d", i)
		before[k] = r.Lookup(k)
	}
	r.Add("c2")
	moved := 0
	for k, owner := range before {
		after := r.Lookup(k)
		if after != owner {
			if after != "c2" {
				t.Fatalf("key %s moved %s -> %s, not to the new node", k, owner, after)
			}
			moved++
		}
	}
	// Roughly 1/3 of keys should move to the new node.
	frac := float64(moved) / 5000
	if frac < 0.15 || frac > 0.55 {
		t.Fatalf("add moved %.0f%% of keys, want ~33%%", frac*100)
	}
}

func TestRingEmptyAndIdempotent(t *testing.T) {
	r := NewRing(8)
	if r.Lookup("x") != "" {
		t.Fatal("empty ring returned owner")
	}
	r.Add("a")
	r.Add("a")
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
	r.Remove("ghost")
	r.Remove("a")
	r.Remove("a")
	if r.Len() != 0 || r.Lookup("x") != "" {
		t.Fatal("remove not idempotent")
	}
}

// startCacheCluster boots n cache services and returns a client wired
// to all of them plus a cleanup func.
func startCacheCluster(t *testing.T, n int) (*Client, *cluster.Cluster) {
	t.Helper()
	net := san.NewNetwork(1, &santest.Codec{})
	cl := cluster.New(net)
	client := NewClient(clientEndpoint(t, net))
	for i := 0; i < n; i++ {
		node := fmt.Sprintf("cnode%d", i)
		cl.AddNode(node, false)
		name := fmt.Sprintf("cache%d", i)
		svc := NewService(name, net, node, NewPartition(1<<20, nil))
		if _, err := cl.Spawn(node, svc); err != nil {
			t.Fatal(err)
		}
		client.AddNode(name, svc.Addr())
	}
	t.Cleanup(cl.StopAll)
	return client, cl
}

// clientEndpoint creates an endpoint with a reply pump.
func clientEndpoint(t *testing.T, net *san.Network) *san.Endpoint {
	t.Helper()
	ep := net.Endpoint(san.Addr{Node: "fe", Proc: "client"}, 256)
	go func() {
		for msg := range ep.Inbox() {
			ep.DeliverReply(msg)
		}
	}()
	return ep
}

func TestClientVirtualCache(t *testing.T) {
	client, _ := startCacheCluster(t, 4)
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("obj-%d", i)
		client.Put(ctx, key, []byte(key+"-data"), "text/html", 0)
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("obj-%d", i)
		data, mime, ok := client.Get(ctx, key)
		if !ok || string(data) != key+"-data" || mime != "text/html" {
			t.Fatalf("key %s: %q %q %v", key, data, mime, ok)
		}
	}
	// Objects must be spread across partitions.
	populated := 0
	for _, name := range client.Nodes() {
		st, err := client.StatsOf(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		if st.Objects > 0 {
			populated++
		}
	}
	if populated < 3 {
		t.Fatalf("only %d partitions populated", populated)
	}
}

func TestClientNodeLossIsAMiss(t *testing.T) {
	client, cl := startCacheCluster(t, 3)
	ctx := context.Background()
	client.Timeout = 100 * time.Millisecond
	// Find a key on cache1.
	var key string
	for i := 0; ; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if client.ring.Lookup(k) == "cache1" {
			key = k
			break
		}
	}
	client.Put(ctx, key, []byte("v"), "b", 0)
	if _, _, ok := client.Get(ctx, key); !ok {
		t.Fatal("warm get failed")
	}
	// Kill the owning node: the get times out and reads as a miss.
	if err := cl.KillNode("cnode1"); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := client.Get(ctx, key); ok {
		t.Fatal("got data from dead node")
	}
	// After re-hashing, the key lands on a live partition.
	client.RemoveNode("cache1")
	client.Put(ctx, key, []byte("v2"), "b", 0)
	data, _, ok := client.Get(ctx, key)
	if !ok || string(data) != "v2" {
		t.Fatal("re-hashed key unreachable")
	}
}

func TestClientInjectAndStats(t *testing.T) {
	client, _ := startCacheCluster(t, 2)
	ctx := context.Background()
	client.Inject(ctx, "post-transform", []byte("tiny"), "image/sgif", 0)
	total := uint64(0)
	for _, name := range client.Nodes() {
		st, err := client.StatsOf(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		total += st.Injects
	}
	if total != 1 {
		t.Fatalf("injects = %d", total)
	}
	if _, err := client.StatsOf(ctx, "ghost"); err == nil {
		t.Fatal("StatsOf unknown partition should error")
	}
}

func TestClientEmptyRing(t *testing.T) {
	net := san.NewNetwork(1, &santest.Codec{})
	client := NewClient(clientEndpoint(t, net))
	if _, _, ok := client.Get(context.Background(), "x"); ok {
		t.Fatal("hit with no partitions")
	}
	client.Put(context.Background(), "x", []byte("v"), "b", 0) // no panic
}

func TestServiceTimeModel(t *testing.T) {
	net := san.NewNetwork(1, &santest.Codec{})
	cl := cluster.New(net)
	cl.AddNode("c0", false)
	svc := NewService("cache0", net, "c0", NewPartition(1<<20, nil))
	svc.ServiceTime = func() time.Duration { return 20 * time.Millisecond }
	if _, err := cl.Spawn("c0", svc); err != nil {
		t.Fatal(err)
	}
	defer cl.StopAll()
	client := NewClient(clientEndpoint(t, net))
	client.AddNode("cache0", san.Addr{Node: "c0", Proc: "cache0"})
	ctx := context.Background()
	client.Put(ctx, "k", []byte("v"), "b", 0)
	start := time.Now()
	client.Get(ctx, "k")
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("service time not applied: %v", elapsed)
	}
}

func TestPartitionConcurrency(t *testing.T) {
	p := NewPartition(1<<20, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i%50)
				p.Put(key, []byte("data"), "b", 0)
				p.Get(key)
			}
		}()
	}
	wg.Wait()
}
