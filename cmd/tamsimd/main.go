// Command tamsimd serves simulation and sweep jobs over HTTP/JSON:
//
//	tamsimd -addr :8347
//	curl -sN localhost:8347/v1/runs -d '{"program":"ss","arg":60,"impl":"md"}'
//	curl -s  localhost:8347/metricz
//
// POST /v1/runs submits one simulation (program, size, implementation,
// cache geometries, miss penalties) and streams NDJSON progress events
// — one per completed cache geometry — followed by the final result
// document. POST /v1/sweeps does the same for a parameter-space grid.
// Submit with ?detach=1 to get the job id immediately instead of
// streaming; then GET /v1/runs/{id} polls status (add ?stream=1 to
// follow the event stream) and DELETE /v1/runs/{id} cancels.
//
// Jobs execute on a bounded in-process worker pool (-workers) and
// compiled program artifacts are cached per (program, size,
// implementation), so repeat jobs skip code generation. GET /metricz
// exposes the server-wide metrics registry: job counts by outcome,
// queue and pool gauges, code-cache hit rates and per-kind job latency
// histograms.
//
// Distributed sweeps: -shard-workers farms each sweep's (workload,
// impl) shards out to remote tamsimd workers with leases, retries,
// backoff, hedging and circuit breaking, degrading to the daemon's own
// sweep-unit path — recording into its store — when no worker is
// reachable. Start the leaves with -worker (a plain
// serving node, conventionally journal-less) and point the coordinator
// at them:
//
//	tamsimd -worker -addr :8348
//	tamsimd -worker -addr :8349
//	tamsimd -addr :8347 -journal /var/lib/tamsimd/journal.ndjson \
//	        -shard-workers http://127.0.0.1:8348,http://127.0.0.1:8349
//
// -journal write-ahead journals every job state transition (fsynced
// NDJSON); a restarted daemon re-queues incomplete jobs under their
// original IDs and still serves results for completed ones. Sweeps
// also checkpoint every finished (workload, impl) unit, so a daemon
// killed mid-sweep resumes from its last checkpoint instead of
// starting over — the resumed result document is byte-identical to an
// uninterrupted run. -journal-max-bytes bounds the file: past the
// bound it is compacted in place (terminal jobs fold into snapshot
// lines, live jobs keep their checkpoints).
//
// Resilience: -job-timeout arms a per-job watchdog that kills any job
// running past the deadline (terminal "error" event prefixed
// deadline_exceeded, admission slot released). -scrub-interval starts
// a background integrity scrubber over the disk store: every blob's
// checksum is verified, corrupt blobs are quarantined (renamed .bad,
// never served) and transparently re-fetched from peers or
// re-recorded. On SIGTERM/SIGINT the daemon drains gracefully:
// /readyz flips to 503 (so load balancers and coordinators route
// elsewhere), new submissions are refused, running sweeps checkpoint,
// and the process exits within -drain-timeout. /healthz stays
// liveness-only; poll /readyz for routability.
//
// Recording store: every daemon keeps a content-addressed store of
// compacted trace recordings keyed by the (program, arg, impl, nodes,
// placement) descriptor, so repeat sweeps replay instead of
// re-simulating. -store-mem bounds the in-memory tier (negative means
// no memory tier: with no -store-dir the store keeps nothing and every
// sweep unit records afresh), -store-dir adds a disk tier that survives
// restarts, and -store-peers lists peer daemons to consult — and push
// freshly recorded traces to — before simulating from scratch.
// Recordings move over GET/PUT /v1/recordings/{key} (compacted bytes,
// ETag = key, Range supported). Point each worker's -store-peers at
// the coordinator and the fleet records each unit at most once:
//
//	tamsimd -worker -addr :8348 -store-peers http://127.0.0.1:8347
//	tamsimd -worker -addr :8349 -store-peers http://127.0.0.1:8347
//	tamsimd -addr :8347 -store-dir /var/lib/tamsimd/store \
//	        -shard-workers http://127.0.0.1:8348,http://127.0.0.1:8349
//
// The -chaos-* flags wrap the coordinator's outbound transport in
// internal/faultnet's seeded fault injector (drops, 5xxs, mid-stream
// disconnects, latency spikes) for end-to-end robustness drills.
//
// Tenancy: -api-keys names a file of `<key> <tenant> [max_concurrent]
// [jobs_per_minute] [burst]` lines. With it set, every request outside
// /healthz, /metricz and the fleet-internal blob endpoints needs
// `Authorization: Bearer <key>`; submissions pass the tenant's
// token-bucket admission controller (429 + Retry-After past quota) and
// tenants see exactly their own jobs. Leaf workers conventionally run
// without -api-keys — the front door guards the edge, the fleet behind
// it is one trust domain.
//
// Result cache: identical normalized requests are served from a
// content-addressed result cache (byte-identical to fresh execution)
// shared fleet-wide over GET/PUT /v1/results/{key} with the same peer
// list as the recording store. -results-mem bounds its memory tier
// (negative disables); with -store-dir set the disk tier lives under
// <store-dir>/results.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"jmtam/internal/faultnet"
	"jmtam/internal/server"
	"jmtam/internal/shard"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8347", "listen address (use :0 for an ephemeral port)")
	workers := flag.Int("workers", 0, "max concurrently executing jobs (0 = GOMAXPROCS)")
	cacheEntries := flag.Int("cache-entries", 32, "compiled-program cache capacity")
	maxInstrs := flag.Uint64("max-instructions", 0, "default per-job instruction budget (0 = 2e9)")
	journalPath := flag.String("journal", "", "write-ahead job journal path (empty = no journal)")
	journalMaxBytes := flag.Int64("journal-max-bytes", 0, "compact the journal past this size (0 = 64 MiB, negative = unbounded)")
	jobTimeout := flag.Duration("job-timeout", 0, "kill any job running longer than this (0 = no watchdog)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for running jobs on SIGTERM before forced exit")
	scrubInterval := flag.Duration("scrub-interval", 0, "background disk-store integrity scrub period (0 = no scrubber)")
	storeDir := flag.String("store-dir", "", "recording store disk tier (empty = memory only)")
	storeMem := flag.Int64("store-mem", 0, "recording store memory budget in bytes (0 = 256 MiB, negative = no memory tier)")
	storePeers := flag.String("store-peers", "", "comma-separated peer daemon base URLs to consult for recordings")
	resultsMem := flag.Int64("results-mem", 0, "result cache memory budget in bytes (0 = 64 MiB, negative = cache disabled)")
	apiKeys := flag.String("api-keys", "", "API-key file enabling tenancy: <key> <tenant> [max_concurrent] [jobs_per_minute] [burst] per line")
	workerMode := flag.Bool("worker", false, "run as a leaf worker (ignores -journal and -shard-workers)")
	shardWorkers := flag.String("shard-workers", "", "comma-separated worker base URLs; farm sweeps out to them")
	leaseTimeout := flag.Duration("lease-timeout", 0, "per-shard lease before re-queue (0 = 2m)")
	hedgeAfter := flag.Duration("hedge-after", 0, "straggler hedge delay (0 = no hedging)")
	chaosSeed := flag.Uint64("chaos-seed", 1, "fault-injection seed")
	chaosDrop := flag.Float64("chaos-drop", 0, "probability a coordinator request is dropped")
	chaos5xx := flag.Float64("chaos-5xx", 0, "probability a coordinator request gets a synthetic 503")
	chaosDisconnect := flag.Float64("chaos-disconnect", 0, "probability a response stream is cut mid-body")
	chaosSpike := flag.Float64("chaos-spike", 0, "probability a request is delayed by -chaos-spike-ms")
	chaosSpikeMS := flag.Int("chaos-spike-ms", 250, "latency spike duration in milliseconds")
	flag.Parse()

	log.SetOutput(os.Stdout)
	log.SetPrefix("tamsimd: ")

	cfg := server.Config{
		Workers:                *workers,
		CacheEntries:           *cacheEntries,
		DefaultMaxInstructions: *maxInstrs,
		StoreDir:               *storeDir,
		StoreMemBytes:          *storeMem,
		ResultMemBytes:         *resultsMem,
		JobTimeout:             *jobTimeout,
		ScrubInterval:          *scrubInterval,
	}
	if *apiKeys != "" {
		tenants, err := server.LoadTenants(*apiKeys)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Tenants = tenants
		log.Printf("tenancy: %s", *apiKeys)
	}
	for _, u := range strings.Split(*storePeers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			cfg.StorePeers = append(cfg.StorePeers, u)
		}
	}
	if *workerMode {
		log.Print("worker mode: serving shards, no journal, no fan-out")
	} else {
		cfg.JournalPath = *journalPath
		cfg.JournalMaxBytes = *journalMaxBytes
		if *shardWorkers != "" {
			for _, u := range strings.Split(*shardWorkers, ",") {
				if u = strings.TrimSpace(u); u != "" {
					cfg.ShardWorkers = append(cfg.ShardWorkers, u)
				}
			}
			cfg.Shard = shard.Config{
				LeaseTimeout: *leaseTimeout,
				HedgeAfter:   *hedgeAfter,
				Seed:         *chaosSeed,
			}
			if *chaosDrop > 0 || *chaos5xx > 0 || *chaosDisconnect > 0 || *chaosSpike > 0 {
				cfg.Shard.Transport = faultnet.NewTransport(nil, faultnet.Plan{
					Seed:       *chaosSeed,
					Drop:       *chaosDrop,
					Err5xx:     *chaos5xx,
					Disconnect: *chaosDisconnect,
					SpikeProb:  *chaosSpike,
					Spike:      time.Duration(*chaosSpikeMS) * time.Millisecond,
				})
				log.Printf("chaos: injecting faults on the coordinator transport (seed %d)", *chaosSeed)
			}
			log.Printf("coordinating sweeps across %d workers", len(cfg.ShardWorkers))
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on http://%s", ln.Addr())

	hs := &http.Server{
		Handler: srv.Handler(),
		// NDJSON job streams are long-lived by design, so there is no
		// WriteTimeout here; per-write deadlines inside the stream loop
		// bound stalled subscribers instead. These two cap what a client
		// can pin without ever sending or between requests.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Print("draining: refusing new jobs, waiting for running ones")
		// Drain first: /readyz goes 503 so routers steer elsewhere, new
		// submissions are refused, and running jobs get up to
		// -drain-timeout to finish (sweeps checkpoint as they go, so
		// whatever doesn't finish resumes after restart).
		dCtx, dCancel := context.WithTimeout(context.Background(), *drainTimeout)
		srv.Drain(dCtx)
		dCancel()
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(shCtx)
	}()
	if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	fmt.Println("tamsimd: bye")
}
