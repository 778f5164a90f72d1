// Command twinserver runs the ARCHER2 digital twin as a long-lived HTTP
// service: clients POST declarative sweep specs and poll (or wait) for
// baseline-relative results, while one shared scenario.Runner keeps an
// LRU memo of completed simulations warm across requests — the opposite
// economics of the one-shot cmd/sweep, which pays full simulation cost
// per invocation.
//
// Usage:
//
//	twinserver [-addr :8990] [-workers N] [-memo-cap N]
//	           [-memo-budget-bytes N] [-max-concurrent N] [-max-finished N]
//	           [-data-dir DIR] [-max-pending N]
//	           [-drain-timeout D] [-coordinator] [-join URL]
//	           [-advertise URL] [-heartbeat D] [-shard-timeout D]
//	           [-worker-ttl D]
//
// The wire contract (endpoints, envelopes, error codes) is documented in
// docs/api.md; docs/sweeps.md has a usage walkthrough.
//
// Durability. -data-dir DIR makes the server durable: every sweep
// transition is journaled (and fsynced) under DIR before it is
// acknowledged, and a restart replays the journal — completed sweeps
// re-register with their journaled results, interrupted ones resume
// with only their missing scenarios re-simulated, byte-identical to an
// uninterrupted run. On SIGTERM a durable server drains: submissions
// are refused, in-flight sweeps get -drain-timeout to finish, and
// stragglers are journaled as interrupted for the next start to resume.
// The journal keeps the records of exactly the sweeps the registry
// holds: every unfinished or interrupted sweep and the -max-finished
// most recently finished ones.
// See docs/architecture.md, "Durability & recovery".
//
// Fabric modes. A plain twinserver is a self-contained single-process
// service. Two flags turn a set of them into a distributed sweep fabric:
//
//   - twinserver -coordinator runs no simulations itself: submitted
//     sweeps are partitioned by consistent hashing and dispatched as
//     shards to the worker replicas registered with it, and the merged
//     results are byte-identical to a single-process run;
//   - twinserver -join http://coordinator:8990 runs as a worker: it
//     serves shards (POST /v1/shards) like any twinserver and announces
//     itself to the coordinator on start and every -heartbeat.
//
// Concurrent identical submissions (same canonical spec) execute once;
// repeated distinct sweeps stay fast through the Runner's memo, bounded
// at -memo-cap simulations AND -memo-budget-bytes retained bytes (each
// entry priced at its compacted core.Results.MemoryFootprint), with
// least-recently-used eviction against both bounds — the byte budget is
// what keeps a warm process serving full-size sweeps from growing
// without limit. SIGINT or
// SIGTERM drains: in-flight sweeps are cancelled (cooperatively, down in
// each simulation's event loop) and the listener shuts down gracefully.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/greenhpc/archertwin/internal/api"
	"github.com/greenhpc/archertwin/internal/fabric"
	"github.com/greenhpc/archertwin/internal/journal"
	"github.com/greenhpc/archertwin/internal/scenario"
	"github.com/greenhpc/archertwin/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("twinserver: ")
	addr := flag.String("addr", ":8990", "listen address")
	workers := flag.Int("workers", 0, "simulation worker-pool size per sweep (0 = GOMAXPROCS)")
	memoCap := flag.Int("memo-cap", 0, "max memoized simulations, LRU-evicted beyond (0 = default 256, negative disables)")
	memoBudget := flag.Int64("memo-budget-bytes", 0, "memo cache byte budget, coldest entries evicted beyond (0 = default 1 GiB, negative disables the byte bound)")
	maxConcurrent := flag.Int("max-concurrent", 2, "max concurrently executing sweeps (or shards, on a worker)")
	maxFinished := flag.Int("max-finished", 64, "finished sweeps retained for status/result queries (and, with -data-dir, in the journal)")
	dataDir := flag.String("data-dir", "", "journal directory; enables durable mode (crash recovery, resumable sweeps)")
	maxPending := flag.Int("max-pending", 64, "queued sweeps beyond which submissions are shed with 429 + Retry-After (0 = unbounded)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long in-flight sweeps may finish on SIGTERM before being journaled as interrupted")
	coordinator := flag.Bool("coordinator", false, "run as a fabric coordinator: dispatch sweeps as shards to joined workers instead of simulating locally")
	join := flag.String("join", "", "coordinator base URL to join as a worker (e.g. http://host:8990)")
	advertise := flag.String("advertise", "", "base URL this worker advertises when joining (default derived from -addr)")
	heartbeat := flag.Duration("heartbeat", 10*time.Second, "worker re-join (heartbeat) interval when -join is set")
	shardTimeout := flag.Duration("shard-timeout", 15*time.Minute, "coordinator: per-shard dispatch timeout before re-sharding")
	workerTTL := flag.Duration("worker-ttl", 0, "coordinator: drop workers not heard from within this window (0 = 3x -heartbeat; negative = never expire)")
	flag.Parse()

	if *coordinator && *join != "" {
		log.Fatal("-coordinator and -join are mutually exclusive")
	}
	if *coordinator && *dataDir != "" {
		log.Fatal("-coordinator and -data-dir are mutually exclusive: a coordinator owns no execution state to journal")
	}

	var (
		coord   *fabric.Coordinator
		handler http.Handler
	)
	cfg := service.Config{
		MaxConcurrent: *maxConcurrent,
		MaxFinished:   *maxFinished,
		MaxPending:    *maxPending,
	}
	if *coordinator {
		// A coordinator owns no runner: its "execution" is sharding the
		// sweep across the joined workers. Everything else — the
		// registry, singleflight dedup, lifecycle, cancellation — is the
		// same service.
		coord = fabric.New(fabric.Config{
			ShardTimeout: *shardTimeout,
			Heartbeat:    *heartbeat,
			WorkerTTL:    *workerTTL,
			Logf:         log.Printf,
		})
		cfg.Run = coord.Run
	} else {
		cfg.Runner = &scenario.Runner{Workers: *workers, MemoCap: *memoCap, MemoBudgetBytes: *memoBudget}
	}
	var jl *journal.Log
	if *dataDir != "" {
		var err error
		if jl, err = journal.Open(*dataDir, journal.Options{}); err != nil {
			log.Fatal(err)
		}
		cfg.Journal = jl
	}
	svc, err := service.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if jl != nil {
		stats, err := svc.Recover(context.Background())
		if err != nil {
			log.Fatalf("recovering journal %s: %v", *dataDir, err)
		}
		if stats.Sweeps > 0 {
			log.Printf("recovered %d sweeps from %s: %d finished, %d resumed, %d journaled results reused",
				stats.Sweeps, *dataDir, stats.Finished, stats.Resumed, stats.ReusedResults)
		}
	}
	handler = service.NewHandler(svc)
	if coord != nil {
		handler = fabric.Handler(coord, handler)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	switch {
	case *coordinator:
		log.Printf("coordinating on %s", *addr)
	case *join != "":
		log.Printf("listening on %s, joining %s", *addr, *join)
		go heartbeatLoop(ctx, *join, advertiseURL(*advertise, *addr), *heartbeat)
	default:
		log.Printf("listening on %s", *addr)
	}

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Drain: durable servers give in-flight sweeps a bounded window to
	// finish (stragglers are journaled as interrupted, so the next start
	// resumes them); non-durable ones cancel immediately. Then the
	// listener gets its own window to flush responses.
	if jl != nil {
		log.Printf("draining: in-flight sweeps have %v to finish", *drainTimeout)
		drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
		interrupted := svc.Drain(drainCtx)
		cancelDrain()
		if interrupted > 0 {
			log.Printf("%d sweeps journaled as interrupted; they resume on next start", interrupted)
		}
	} else {
		log.Print("shutting down")
		svc.Shutdown()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	if jl != nil {
		if err := jl.Close(); err != nil {
			log.Printf("closing journal: %v", err)
		}
	}
}

// advertiseURL resolves the base URL a worker announces: the explicit
// -advertise value, or one derived from the listen address (a bare
// ":8990" becomes loopback — fine for single-host clusters, tests and
// CI; multi-host deployments set -advertise).
func advertiseURL(advertise, addr string) string {
	if advertise != "" {
		return strings.TrimRight(advertise, "/")
	}
	if strings.HasPrefix(addr, ":") {
		return "http://127.0.0.1" + addr
	}
	return "http://" + addr
}

// heartbeatLoop announces this worker to the coordinator immediately and
// then every interval, so a coordinator restart (or a TTL expiry after a
// stall) heals without operator action.
func heartbeatLoop(ctx context.Context, coordURL, selfURL string, interval time.Duration) {
	client := api.NewClient(coordURL)
	joined := false
	for {
		callCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
		_, err := client.Join(callCtx, api.JoinRequest{URL: selfURL})
		cancel()
		switch {
		case err != nil:
			log.Printf("join %s: %v", coordURL, err)
			joined = false
		case !joined:
			log.Printf("joined %s as %s", coordURL, selfURL)
			joined = true
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(interval):
		}
	}
}
