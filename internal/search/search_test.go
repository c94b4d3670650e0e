package search

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/san"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("The Quick-Brown FOX, jumps 42 times!")
	want := []string{"the", "quick", "brown", "fox", "jumps", "42", "times"}
	if len(got) != len(want) {
		t.Fatalf("tokens = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tokens = %v", got)
		}
	}
}

func TestShardSearchRanking(t *testing.T) {
	docs := []Doc{
		{ID: 0, Title: "cluster computing", Body: "cluster cluster cluster workstation"},
		{ID: 1, Title: "databases", Body: "transaction acid durability"},
		{ID: 2, Title: "networks", Body: "cluster appears once here"},
	}
	s := BuildShard(0, docs)
	hits := s.Search("cluster", 10)
	if len(hits) != 2 {
		t.Fatalf("hits = %+v", hits)
	}
	if hits[0].Doc != 0 || hits[1].Doc != 2 {
		t.Fatalf("ranking wrong: %+v", hits)
	}
	if hits[0].Score <= hits[1].Score {
		t.Fatal("tf weighting missing")
	}
	if got := s.Search("zebra", 10); len(got) != 0 {
		t.Fatalf("unknown term returned hits: %v", got)
	}
	if got := s.Search("", 10); got != nil {
		t.Fatal("empty query should return nil")
	}
}

func TestShardTopKBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	docs := GenerateCorpus(rng, 500, 200)
	s := BuildShard(0, docs)
	term := Tokenize(docs[0].Body)[0]
	hits := s.Search(term, 5)
	if len(hits) > 5 {
		t.Fatalf("top-k bound violated: %d", len(hits))
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Fatal("hits not sorted by score")
		}
	}
}

func TestPartitionCoversAllDocsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	docs := GenerateCorpus(rng, 2000, 500)
	parts := Partition(docs, 7, 42)
	seen := map[int]int{}
	for _, p := range parts {
		for _, d := range p {
			seen[d.ID]++
		}
	}
	if len(seen) != 2000 {
		t.Fatalf("covered %d docs", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("doc %d assigned %d times", id, n)
		}
	}
	// Roughly balanced.
	for i, p := range parts {
		if len(p) < 2000/7/2 || len(p) > 2000/7*2 {
			t.Fatalf("partition %d has %d docs", i, len(p))
		}
	}
}

func TestMergeHits(t *testing.T) {
	a := []Hit{{Doc: 1, Score: 5}, {Doc: 2, Score: 1}}
	b := []Hit{{Doc: 3, Score: 3}}
	merged := MergeHits([][]Hit{a, b}, 2)
	if len(merged) != 2 || merged[0].Doc != 1 || merged[1].Doc != 3 {
		t.Fatalf("merged = %+v", merged)
	}
}

// deployTestEngine boots a small engine over a fresh cluster.
func deployTestEngine(t *testing.T, mode FailureMode, parts int) (*Engine, *cluster.Cluster, []Doc) {
	t.Helper()
	net := san.NewNetwork(1, WireCodec{})
	cl := cluster.New(net)
	for i := 0; i < parts; i++ {
		cl.AddNode(fmt.Sprintf("snode%d", i), false)
	}
	rng := rand.New(rand.NewSource(3))
	docs := GenerateCorpus(rng, 3000, 800)
	e, err := Deploy(Config{
		Net:          net,
		Cluster:      cl,
		Partitions:   parts,
		Mode:         mode,
		Seed:         7,
		QueryTimeout: 300 * time.Millisecond,
	}, docs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.StopAll)
	return e, cl, docs
}

func TestEngineFullCoverageQuery(t *testing.T) {
	e, _, docs := deployTestEngine(t, FastRestart, 4)
	res := e.Query(context.Background(), "ba", 10)
	if res.Partial {
		t.Fatalf("partial with all nodes up: %+v", res)
	}
	if res.DocsSearched != len(docs) {
		t.Fatalf("searched %d of %d", res.DocsSearched, len(docs))
	}
	if res.ShardsAlive != 4 {
		t.Fatalf("shards alive = %d", res.ShardsAlive)
	}
}

func TestEngineMatchesSingleShardReference(t *testing.T) {
	// A partitioned engine must return the same top hits as one big
	// local index (random partitioning preserves ranking to within
	// idf noise; we check the top result and hit count).
	e, _, docs := deployTestEngine(t, FastRestart, 4)
	reference := BuildShard(0, docs)
	query := "ba be"
	got := e.Query(context.Background(), query, 20)
	want := reference.Search(query, 20)
	if len(got.Hits) == 0 || len(want) == 0 {
		t.Fatalf("no hits: engine=%d ref=%d", len(got.Hits), len(want))
	}
	wantDocs := map[int]bool{}
	for _, h := range want {
		wantDocs[h.Doc] = true
	}
	overlap := 0
	for _, h := range got.Hits {
		if wantDocs[h.Doc] {
			overlap++
		}
	}
	if float64(overlap)/float64(len(got.Hits)) < 0.6 {
		t.Fatalf("only %d/%d overlap with reference ranking", overlap, len(got.Hits))
	}
}

func TestFastRestartDegradesGracefully(t *testing.T) {
	e, cl, docs := deployTestEngine(t, FastRestart, 4)
	ctx := context.Background()

	// Kill one shard node: the 54M -> 51M story in miniature.
	if err := cl.KillNode("snode1"); err != nil {
		t.Fatal(err)
	}
	res := e.Query(ctx, "bi", 10)
	if !res.Partial {
		t.Fatal("node loss not reflected as partial result")
	}
	if res.DocsSearched >= len(docs) {
		t.Fatal("docs searched did not shrink")
	}
	if res.ShardsAlive != 3 {
		t.Fatalf("shards alive = %d, want 3", res.ShardsAlive)
	}
	// Still useful: roughly 3/4 of the corpus searched.
	frac := float64(res.DocsSearched) / float64(len(docs))
	if frac < 0.6 {
		t.Fatalf("coverage %.2f too low for one lost node of four", frac)
	}
	if e.Stats().PartialAnswers == 0 {
		t.Fatal("partial answers not counted")
	}
}

func TestCrossMountKeepsFullAvailability(t *testing.T) {
	e, cl, docs := deployTestEngine(t, CrossMount, 4)
	ctx := context.Background()
	if err := cl.KillNode("snode1"); err != nil {
		t.Fatal(err)
	}
	res := e.Query(ctx, "bi", 10)
	if res.Partial {
		t.Fatalf("cross-mount mode went partial: %+v", res)
	}
	if res.DocsSearched != len(docs) {
		t.Fatalf("searched %d of %d despite replicas", res.DocsSearched, len(docs))
	}
	if e.Stats().ReplicaFallbacks == 0 {
		t.Fatal("replica fallback not exercised")
	}
}

func TestResultCacheIncrementalDelivery(t *testing.T) {
	e, _, _ := deployTestEngine(t, FastRestart, 2)
	ctx := context.Background()
	res := e.Query(ctx, "ba", 50)
	if res.FromCache {
		t.Fatal("first query claimed cache")
	}
	res2 := e.Query(ctx, "ba", 50)
	if !res2.FromCache {
		t.Fatal("repeat query missed cache")
	}
	if e.Stats().CacheHits != 1 {
		t.Fatalf("cache hits = %d", e.Stats().CacheHits)
	}
	// Page 2 straight from the cache.
	if len(res.Hits) > 10 {
		page2, ok := e.Page("ba", 2, 10)
		if !ok || len(page2) == 0 {
			t.Fatal("page 2 unavailable from cache")
		}
		if page2[0].Doc != res.Hits[10].Doc {
			t.Fatal("page 2 content wrong")
		}
	}
	if _, ok := e.Page("never-queried", 1, 10); ok {
		t.Fatal("uncached query paged")
	}
	if _, ok := e.Page("ba", 0, 10); ok {
		t.Fatal("page 0 accepted")
	}
}

func TestResultCacheEviction(t *testing.T) {
	c := newResultCache(2)
	c.put("a", &QueryResult{Query: "a"})
	c.put("b", &QueryResult{Query: "b"})
	c.put("c", &QueryResult{Query: "c"})
	if _, ok := c.get("a"); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("newest entry evicted")
	}
}

func TestRenderResults(t *testing.T) {
	page := RenderResults(QueryResult{
		Query:        "clusters",
		Hits:         []Hit{{Doc: 1, Title: "a doc", Score: 2.5}},
		DocsSearched: 50,
		TotalDocs:    100,
		Partial:      true,
	})
	if !strings.Contains(page, "Partial results") {
		t.Fatal("partial banner missing")
	}
	if !strings.Contains(page, "a doc") {
		t.Fatal("hit missing")
	}
}

func TestDeployNeedsEnoughNodes(t *testing.T) {
	net := san.NewNetwork(1, WireCodec{})
	cl := cluster.New(net)
	cl.AddNode("only", false)
	_, err := Deploy(Config{Net: net, Cluster: cl, Partitions: 4}, nil)
	if err == nil {
		t.Fatal("deploy with too few nodes succeeded")
	}
}

func TestGenerateCorpusDeterministic(t *testing.T) {
	a := GenerateCorpus(rand.New(rand.NewSource(5)), 50, 200)
	b := GenerateCorpus(rand.New(rand.NewSource(5)), 50, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("corpus not deterministic")
		}
	}
	if syntheticWord(0) == syntheticWord(1) {
		t.Fatal("word collision")
	}
}

// TestWireCodecRoundTrip: both shard bodies survive the codec intact,
// and neither aliases the wire bytes.
func TestWireCodecRoundTrip(t *testing.T) {
	bodies := map[string]any{
		msgQuery: queryReq{Query: "ba de", K: 10},
		msgHits: queryResp{Docs: 1234, Hits: []Hit{
			{Doc: 7, Title: "seven", Score: 2.5, Shard: 1},
			{Doc: -1, Title: "", Score: -0.125, Shard: 25},
		}},
	}
	for kind, body := range bodies {
		wire, err := WireCodec{}.AppendBody(nil, kind, body)
		if err != nil {
			t.Fatalf("%s: encode: %v", kind, err)
		}
		got, aliased, err := WireCodec{}.DecodeBodyView(kind, wire)
		if err != nil {
			t.Fatalf("%s: decode: %v", kind, err)
		}
		if aliased {
			t.Fatalf("%s: decode reports aliasing", kind)
		}
		if !reflect.DeepEqual(got, body) {
			t.Fatalf("%s: round trip\n got %#v\nwant %#v", kind, got, body)
		}
	}
	if _, err := (WireCodec{}).AppendBody(nil, msgQuery, "not a query"); !errors.Is(err, ErrWireFormat) {
		t.Fatalf("wrong body type: err = %v, want ErrWireFormat", err)
	}
}

// TestWireCodecRejectsTruncated: every strict prefix of a valid
// encoding, and trailing garbage, decodes to an error — never a panic.
func TestWireCodecRejectsTruncated(t *testing.T) {
	wire, err := WireCodec{}.AppendBody(nil, msgHits, queryResp{Docs: 9, Hits: []Hit{{Doc: 3, Title: "t", Score: 1, Shard: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(wire); cut++ {
		if _, _, err := (WireCodec{}).DecodeBodyView(msgHits, wire[:cut]); !errors.Is(err, ErrWireFormat) {
			t.Fatalf("prefix %d/%d: err = %v, want ErrWireFormat", cut, len(wire), err)
		}
	}
	if _, _, err := (WireCodec{}).DecodeBodyView(msgHits, append(wire, 0)); !errors.Is(err, ErrWireFormat) {
		t.Fatalf("trailing byte: err = %v, want ErrWireFormat", err)
	}
	// A hit count far beyond what the bytes can hold is refused before
	// anything is allocated for it.
	if _, _, err := (WireCodec{}).DecodeBodyView(msgHits, []byte{0xff, 0xff, 0xff, 0xff, 0x0f}); !errors.Is(err, ErrWireFormat) {
		t.Fatalf("huge hit count: err = %v, want ErrWireFormat", err)
	}
}

// FuzzWireCodec: arbitrary bytes decode to a body or an error, never a
// panic, and whatever decodes re-encodes to bytes that decode and
// re-encode to themselves.
func FuzzWireCodec(f *testing.F) {
	for kind, body := range map[string]any{
		msgQuery: queryReq{Query: "ba", K: 3},
		msgHits:  queryResp{Docs: 2, Hits: []Hit{{Doc: 1, Title: "x", Score: 0.5}}},
	} {
		wire, err := WireCodec{}.AppendBody(nil, kind, body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(kind == msgHits, wire)
	}
	f.Fuzz(func(t *testing.T, hits bool, data []byte) {
		kind := msgQuery
		if hits {
			kind = msgHits
		}
		body, _, err := WireCodec{}.DecodeBodyView(kind, data)
		if err != nil {
			return
		}
		wire, err := WireCodec{}.AppendBody(nil, kind, body)
		if err != nil {
			t.Fatalf("decoded %#v does not re-encode: %v", body, err)
		}
		body2, _, err := WireCodec{}.DecodeBodyView(kind, wire)
		if err != nil {
			t.Fatalf("re-encoding %x does not decode: %v", wire, err)
		}
		if wire2, _ := (WireCodec{}).AppendBody(nil, kind, body2); !bytes.Equal(wire2, wire) {
			t.Fatalf("re-encoding is unstable:\n got %x\nwant %x", wire2, wire)
		}
	})
}
