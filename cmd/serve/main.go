// Command serve runs the online detection service: an HTTP front end
// over a saved detector whose inference core is the micro-batching
// scheduler in internal/serve.
//
// Usage:
//
//	serve -model detector.gob -addr :8377 -batch 64
//
// The batcher is work-conserving: a lone request is scored at once, on its
// handler's own goroutine, and batches (up to -batch rows) form only from
// what queued while every engine (-workers of them) was busy. There is no
// wait to tune.
//
// Endpoints: POST /v1/classify (assembly text or JSON), POST
// /v1/classify/vector (raw feature vector), GET /v1/model (serving
// snapshot version + swap count), GET /metrics, /healthz, /readyz.
// With -admin, POST /admin/swap hot-swaps a model gob into the serving
// handle with zero dropped requests; cmd/retrain -swap-url drives it.
//
// On SIGTERM or SIGINT the server drains gracefully: /readyz flips to
// 503, the listener stops accepting, in-flight requests flush through
// the batcher, and the process exits 0 with the drain accounting on
// stderr — dropped is always 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"advmal/internal/core"
	"advmal/internal/index"
	"advmal/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		model   = flag.String("model", "detector.gob", "detector file (train one with repro train -model)")
		addr    = flag.String("addr", ":8377", "listen address (use :0 for an ephemeral port)")
		batch   = flag.Int("batch", 64, "max requests coalesced per inference batch")
		queue   = flag.Int("queue", 1024, "admission queue depth (full queue fast-fails 429)")
		workers = flag.Int("workers", 0, "inference engines, i.e. batches that can run at once (0 = GOMAXPROCS)")
		timeout = flag.Duration("timeout", 5*time.Second, "per-request budget in queue + inference")
		grace   = flag.Duration("grace", 30*time.Second, "drain deadline after SIGTERM")
		chaos   = flag.Bool("chaos", false, "arm the fault-injection surface (/chaosz) — test harnesses only")
		idx     = flag.String("index", "", "similarity corpus snapshot (build one with repro train -index); arms /v1/similar and classify triage")
		admin   = flag.Bool("admin", false, "mount POST /admin/swap (hot-swap a model gob into the serving handle)")
	)
	flag.Parse()

	f, err := os.Open(*model)
	if err != nil {
		return fmt.Errorf("opening detector (train one with repro train -model): %w", err)
	}
	mdl, err := core.LoadModel(f)
	f.Close()
	if err != nil {
		return err
	}
	handle := core.NewHandle(mdl)

	var corpus *index.Corpus
	if *idx != "" {
		fi, err := os.Open(*idx)
		if err != nil {
			return fmt.Errorf("opening index (build one with repro train -index): %w", err)
		}
		corpus, err = index.Load(fi)
		fi.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "serve: similarity index loaded (%d entries, triage threshold %.4f)\n",
			corpus.HNSW.Len(), corpus.Triage.Threshold)
	}

	cfg := serve.Config{
		Handle:         handle,
		Admin:          *admin,
		BatchSize:      *batch,
		QueueDepth:     *queue,
		Workers:        *workers,
		RequestTimeout: *timeout,
		Corpus:         corpus,
	}
	if *admin {
		fmt.Fprintln(os.Stderr, "serve: admin swap endpoint armed (POST /admin/swap)")
	}
	if *chaos {
		cfg.Chaos = &serve.Chaos{Exit: os.Exit}
		fmt.Fprintln(os.Stderr, "serve: chaos surface armed (/chaosz)")
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}

	ln, err := listenRetry(*addr)
	if err != nil {
		return err
	}
	// The resolved address line doubles as the discovery protocol: smoke
	// scripts and the gateway harness scrape it instead of sleeping, so
	// :0 ephemeral ports work without races.
	fmt.Printf("serve: listening on %s (batch=%d queue=%d)\n",
		ln.Addr(), *batch, *queue)

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Drain sequence: stop advertising readiness, stop the listener and
	// wait for in-flight handlers (which wait on the batcher), then
	// flush the batcher queue. Order matters — Shutdown before Close
	// keeps every accepted request answerable.
	fmt.Fprintln(os.Stderr, "serve: signal received, draining")
	srv.NotReady()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "serve: shutdown:", err)
	}
	st := srv.Drain()
	fmt.Fprintf(os.Stderr, "serve: drained accepted=%d completed=%d dropped=%d\n",
		st.Accepted, st.Completed, st.Dropped)
	if st.Dropped != 0 {
		return fmt.Errorf("drain dropped %d in-flight requests", st.Dropped)
	}
	return nil
}

// listenRetry binds addr, retrying transient EADDRINUSE with doubling
// backoff — the window where a bounced replica's old socket lingers in
// TIME_WAIT, or a supervisor restarts it faster than the kernel reaps
// the port. Other bind errors fail immediately.
func listenRetry(addr string) (net.Listener, error) {
	const attempts = 5
	backoff := 100 * time.Millisecond
	for i := 1; ; i++ {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln, nil
		}
		if !errors.Is(err, syscall.EADDRINUSE) || i == attempts {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "serve: bind %s busy (attempt %d/%d), retrying in %v\n",
			addr, i, attempts, backoff)
		time.Sleep(backoff)
		backoff *= 2
	}
}
