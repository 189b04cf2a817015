// Command batfishd runs the analysis engine as a long-lived HTTP service:
// load named snapshots once, ask questions many times, and survive the
// failure modes a shared service meets — overload, transient faults,
// crashes, and repeatedly degraded snapshots.
//
// Quick start:
//
//	batfishd -addr :8866 -cache /var/cache/batfishd &
//	curl -X PUT localhost:8866/snapshots/prod -d '{"configs":{"r1":"hostname r1\n..."}}'
//	curl 'localhost:8866/snapshots/prod/reachability'
//	curl 'localhost:8866/snapshots/prod/service-reachable?dst=10.0.0.0/24&port=443'
//	curl -X POST localhost:8866/snapshots/prod/edit -d '{"as":"candidate","changes":{"r1":"..."}}'
//	curl 'localhost:8866/snapshots/prod/compare?with=candidate'
//
// Operational endpoints: /healthz (liveness), /readyz (flips to 503 when
// draining), /metrics (JSON counters incl. request latency percentiles
// and cache tiers), /debug/vars (expvar).
//
// With -cache DIR the pipeline keeps a crash-safe persistent artifact
// tier: a restarted batfishd rehydrates data-plane artifacts from disk
// (checksummed; corrupt entries are quarantined and recomputed)
// instead of re-simulating, so warm restarts answer in a fraction of the
// cold time.
//
// SIGINT/SIGTERM drains gracefully: readiness flips, new requests are
// shed with 503 + Retry-After, and in-flight requests finish (bounded by
// -drain-timeout). Exit code 0 on a clean drain, 1 otherwise.
//
// Cluster mode (-cluster-listen, optionally -cluster-join) runs several
// batfishd processes as one service: snapshots are owned by rendezvous
// hash, requests for another member's snapshot are forwarded
// transparently, and a heartbeat failure detector evicts dead members.
// Members with a -cache must all open the same directory (a member whose
// cache names a different coordinator is refused at join): the inheriting
// member warm-starts from the dead member's artifacts there, and the
// coordinator itself fails over through a lease on it. See the cluster
// quick start in README.md.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8866", "listen address")
		cacheDir     = flag.String("cache", "", "persistent artifact cache directory (empty = memory only)")
		cacheMax     = flag.Int64("cache-max", 0, "persistent cache size bound in bytes (0 = default)")
		concurrency  = flag.Int("concurrency", 0, "max concurrently executing requests (0 = default)")
		queue        = flag.Int("queue", 0, "max queued requests before shedding 429 (0 = default)")
		queueWait    = flag.Duration("queue-wait", 0, "max time a request may queue (0 = default)")
		reqTimeout   = flag.Duration("timeout", 0, "per-request analysis deadline (0 = default)")
		retries      = flag.Int("retries", 0, "transient-failure retries per question (0 = default, -1 disables)")
		brThreshold  = flag.Int("breaker-threshold", 0, "consecutive failures tripping a snapshot's breaker (0 = default, -1 disables)")
		brCooldown   = flag.Duration("breaker-cooldown", 0, "how long a tripped breaker rejects (0 = default)")
		storeCap     = flag.Int("store-capacity", 0, "in-memory artifact store capacity (0 = default)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
		faultSpec    = flag.String("faults", "", "fault-injection spec, e.g. \"server:*=sleep:100ms,diskcache:write=panic:1\"")
		pprofOn      = flag.Bool("pprof", false, "expose net/http/pprof profiling under /debug/pprof/")

		clusterJoin   = flag.String("cluster-join", "", "coordinator URL to join (empty with -cluster-listen = run as coordinator)")
		clusterListen = flag.String("cluster-listen", "", "advertised base URL for cluster mode, e.g. http://10.0.0.5:8866 (enables clustering)")
		memberID      = flag.String("member-id", "", "stable cluster member identity (default hostname-pid)")
		heartbeat     = flag.Duration("heartbeat", 0, "cluster heartbeat interval (0 = default 1s); failure suspected after 2 intervals")
	)
	flag.Parse()

	if *faultSpec != "" {
		inj, err := faults.ParseSpec(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "batfishd: bad -faults: %v\n", err)
			os.Exit(2)
		}
		restore := faults.Activate(inj)
		defer restore()
		fmt.Fprintf(os.Stderr, "fault injection active: %s\n", inj.Describe())
	}

	srv, err := server.New(server.Config{
		MaxConcurrent:    *concurrency,
		MaxQueue:         *queue,
		QueueWait:        *queueWait,
		RequestTimeout:   *reqTimeout,
		Retries:          *retries,
		BreakerThreshold: *brThreshold,
		BreakerCooldown:  *brCooldown,
		CacheDir:         *cacheDir,
		CacheMaxBytes:    *cacheMax,
		StoreCapacity:    *storeCap,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "batfishd: %v\n", err)
		os.Exit(1)
	}

	// Publish the service counters through expvar alongside the
	// runtime's; registration lives here (not in the package) so tests
	// can build many Servers without tripping expvar's duplicate check.
	expvar.Publish("batfishd", expvar.Func(func() any { return srv.Metrics() }))

	// Cluster mode: wrap the server in a node that routes per-snapshot
	// requests by ownership. The advertised URL is what other members
	// dial, so it must be reachable from them (not ":8866").
	var node *cluster.Node
	if *clusterListen != "" {
		id := *memberID
		if id == "" {
			host, _ := os.Hostname()
			if host == "" {
				host = "member"
			}
			id = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		node, err = cluster.NewNode(cluster.Config{
			ID:        id,
			Server:    srv,
			Heartbeat: *heartbeat,
			Logf:      func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "batfishd: %v\n", err)
			os.Exit(1)
		}
		if err := node.Start(context.Background(), *clusterListen, *clusterJoin); err != nil {
			fmt.Fprintf(os.Stderr, "batfishd: cluster join: %v\n", err)
			os.Exit(1)
		}
		role := "member of " + *clusterJoin
		if *clusterJoin == "" {
			role = "coordinator"
		}
		fmt.Fprintf(os.Stderr, "batfishd: cluster %s at %s (%s)\n", id, *clusterListen, role)
	} else if *clusterJoin != "" {
		fmt.Fprintln(os.Stderr, "batfishd: -cluster-join requires -cluster-listen")
		os.Exit(2)
	}

	mux := http.NewServeMux()
	if node != nil {
		mux.Handle("/", node.Handler())
	} else {
		mux.Handle("/", srv.Handler())
	}
	mux.Handle("GET /debug/vars", expvar.Handler())
	if *pprofOn {
		// Off by default: the profiling endpoints disclose internals and
		// cost CPU when scraped, so they are opt-in per instance.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		fmt.Fprintln(os.Stderr, "batfishd: pprof enabled at /debug/pprof/")
	}

	httpSrv := &http.Server{Addr: *addr, Handler: mux}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "batfishd: listening on %s\n", *addr)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "batfishd: %v\n", err)
		os.Exit(1)
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "batfishd: %v: draining\n", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	// In cluster mode the node drains: it leaves the view (handing its
	// snapshots to the survivors), stops heartbeating, then drains the
	// wrapped server. Standalone, the server drains directly.
	drain := srv.Drain
	if node != nil {
		drain = node.Drain
	}
	if err := drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "batfishd: %v\n", err)
		code = 1
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "batfishd: shutdown: %v\n", err)
		code = 1
	}
	fmt.Fprintln(os.Stderr, "batfishd: drained")
	os.Exit(code)
}
