// HotBot example: the paper's search engine (§3.2) — a statically
// partitioned inverted index with parallel fan-out, result collation,
// incremental delivery from the result cache, and both failure modes:
// fast-restart (graceful corpus degradation, the 54M -> 51M story) and
// cross-mount (100% availability).
//
// Run: go run ./examples/hotbot
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/san"
	"repro/internal/search"
)

func main() {
	rng := rand.New(rand.NewSource(1))
	fmt.Println("building corpus (20k docs)...")
	docs := search.GenerateCorpus(rng, 20000, 3000)

	for _, mode := range []search.FailureMode{search.FastRestart, search.CrossMount} {
		fmt.Printf("\n=== failure mode: %s ===\n", mode)
		runMode(mode, docs)
	}
}

func runMode(mode search.FailureMode, docs []search.Doc) {
	net := san.NewNetwork(1, search.WireCodec{})
	cl := cluster.New(net)
	const partitions = 13 // half of HotBot's 26 nodes
	for i := 0; i < partitions; i++ {
		cl.AddNode(fmt.Sprintf("node%d", i), false)
	}
	defer cl.StopAll()

	engine, err := search.Deploy(search.Config{
		Net:        net,
		Cluster:    cl,
		Partitions: partitions,
		Mode:       mode,
		Seed:       7,
	}, docs)
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	query := "ba de"
	res := engine.Query(ctx, query, 10)
	fmt.Printf("query %q: %d hits over %d/%d docs (%d shards)\n",
		query, len(res.Hits), res.DocsSearched, res.TotalDocs, res.ShardsAlive)
	for i, h := range res.Hits {
		if i >= 3 {
			break
		}
		fmt.Printf("  %d. doc%-6d %-30.30s score %.2f\n", i+1, h.Doc, h.Title, h.Score)
	}

	// Incremental delivery from the result cache.
	page2, ok := engine.Page(query, 2, 3)
	fmt.Printf("page 2 from result cache: ok=%v (%d hits)\n", ok, len(page2))

	// Kill one node mid-flight — February 1997: HotBot moved
	// datacenters without ever going down.
	fmt.Println("killing node3 ...")
	if err := cl.KillNode("node3"); err != nil {
		log.Fatal(err)
	}
	res = engine.Query(ctx, "bi du", 10)
	switch mode {
	case search.FastRestart:
		fmt.Printf("degraded: searched %d of %d docs (partial=%v) — still useful\n",
			res.DocsSearched, res.TotalDocs, res.Partial)
	case search.CrossMount:
		fmt.Printf("replicas took over: searched %d of %d docs (partial=%v), fallbacks=%d\n",
			res.DocsSearched, res.TotalDocs, res.Partial, engine.Stats().ReplicaFallbacks)
	}
}
