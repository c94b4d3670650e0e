// Command hotbot runs the partitioned search engine as an HTTP
// service, in the spirit of the commercial deployment the paper
// describes (§3.2).
//
//	go run ./cmd/hotbot -listen :8090 -docs 54000 -partitions 26
//
// Endpoints:
//
//	GET /search?q=<terms>&k=<n>       collated results (HTML)
//	GET /search?q=...&page=2          incremental delivery from cache
//	GET /chaos?kill=<node>            kill a shard node
//	GET /status                       shard and cache statistics
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/san"
	"repro/internal/search"
)

func main() {
	listen := flag.String("listen", ":8090", "HTTP listen address")
	docsN := flag.Int("docs", 54000, "corpus size (54M at 1:1000 scale)")
	partitions := flag.Int("partitions", 26, "index partitions")
	crossMount := flag.Bool("crossmount", false, "original-Inktomi replica mode")
	flag.Parse()

	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	log.Printf("hotbot: indexing %d documents across %d partitions...", *docsN, *partitions)
	docs := search.GenerateCorpus(rng, *docsN, 8000)

	net := san.NewNetwork(1, search.WireCodec{})
	cl := cluster.New(net)
	for i := 0; i < *partitions; i++ {
		cl.AddNode(fmt.Sprintf("node%d", i), false)
	}
	mode := search.FastRestart
	if *crossMount {
		mode = search.CrossMount
	}
	engine, err := search.Deploy(search.Config{
		Net:        net,
		Cluster:    cl,
		Partitions: *partitions,
		Mode:       mode,
		Seed:       1,
	}, docs)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.StopAll()
	log.Printf("hotbot: up in %s mode", mode)

	mux := http.NewServeMux()
	mux.HandleFunc("/search", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query().Get("q")
		if q == "" {
			http.Error(w, "missing q parameter", http.StatusBadRequest)
			return
		}
		k, _ := strconv.Atoi(r.URL.Query().Get("k"))
		if k <= 0 {
			k = 10
		}
		if pageStr := r.URL.Query().Get("page"); pageStr != "" {
			page, _ := strconv.Atoi(pageStr)
			hits, ok := engine.Page(q, page, k)
			if !ok {
				http.Error(w, "query not cached; fetch page 1 first", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "text/html")
			fmt.Fprint(w, search.RenderResults(search.QueryResult{Query: q, Hits: hits}))
			return
		}
		res := engine.Query(r.Context(), q, k)
		w.Header().Set("Content-Type", "text/html")
		w.Header().Set("X-HotBot-Docs-Searched", strconv.Itoa(res.DocsSearched))
		w.Header().Set("X-HotBot-Partial", strconv.FormatBool(res.Partial))
		fmt.Fprint(w, search.RenderResults(res))
	})
	mux.HandleFunc("/chaos", func(w http.ResponseWriter, r *http.Request) {
		node := r.URL.Query().Get("kill")
		if node == "" {
			http.Error(w, "kill=<node>", http.StatusBadRequest)
			return
		}
		if err := cl.KillNode(node); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fmt.Fprintf(w, "%s killed\n", node)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		st := engine.Stats()
		fmt.Fprintf(w, "mode: %s\ncorpus: %d docs\nqueries: %d (cache hits %d)\n",
			mode, engine.TotalDocs(), st.Queries, st.CacheHits)
		fmt.Fprintf(w, "partial answers: %d, shard timeouts: %d, replica fallbacks: %d\n",
			st.PartialAnswers, st.ShardTimeouts, st.ReplicaFallbacks)
		for _, n := range cl.Nodes() {
			fmt.Fprintf(w, "  %-8s alive=%-5v procs=%v\n", n.ID, n.Alive, n.Procs)
		}
	})

	// A configured server, not bare ListenAndServe: header timeouts so
	// a slow-header client can't pin goroutines, and a graceful
	// Shutdown on SIGINT/SIGTERM.
	srv := &http.Server{
		Addr:              *listen,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	log.Printf("hotbot: listening on %s — try /search?q=ba+de", *listen)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		log.Fatal(err)
	case <-sig:
		log.Print("hotbot: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}
}
