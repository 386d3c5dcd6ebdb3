// Command gateway fronts a cluster of cmd/serve replicas with the
// fault-tolerant reverse proxy in internal/gateway: consistent-hash
// routing on the program text's SHA-256 (per-replica feature caches
// stay warm), health-checked membership over /readyz, capped-backoff
// retries, p99-budget hedging, per-backend circuit breakers, and
// per-client token-bucket load shedding.
//
// Usage:
//
//	gateway -addr :8378 -backends 127.0.0.1:8377,127.0.0.1:8380
//
// Endpoints: POST /v1/classify and /v1/classify/vector (proxied), GET
// /metrics (gateway counters), /backends (replica state JSON),
// /healthz, /readyz.
//
// On SIGTERM or SIGINT the gateway drains: /readyz flips to 503, the
// listener stops accepting, in-flight proxied requests finish, and the
// process exits 0 with a traffic summary on stderr.
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
	"strings"
	"syscall"
	"time"

	"advmal/internal/gateway"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gateway:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", ":8378", "listen address (use :0 for an ephemeral port)")
		backends = flag.String("backends", "", "comma-separated replica addresses (host:port), required")
		vnodes   = flag.Int("vnodes", gateway.DefaultVirtualNodes, "ring points per backend")
		attempts = flag.Int("attempts", 3, "max upstream attempts per request (first try + retries + hedges)")
		attemptT = flag.Duration("attempt-timeout", 2*time.Second, "per-attempt upstream budget")
		hedge    = flag.Duration("hedge-after", 0, "hedge budget (0 = auto from observed p99, negative = disable)")
		rate     = flag.Float64("rate", 0, "per-client sustained requests/sec (0 = no rate limiting)")
		burst    = flag.Float64("burst", 0, "per-client burst size (default max(rate, 1))")
		health   = flag.Duration("health-interval", 250*time.Millisecond, "readyz poll interval (jittered ±20%)")
		eject    = flag.Int("eject-after", 2, "consecutive failed probes before ejecting a backend")
		brkFail  = flag.Int("breaker-failures", 5, "consecutive failures tripping a backend's breaker")
		brkCool  = flag.Duration("breaker-cooldown", 2*time.Second, "open-breaker cooldown before half-open probes")
		grace    = flag.Duration("grace", 30*time.Second, "drain deadline after SIGTERM")
	)
	flag.Parse()

	if *backends == "" {
		return errors.New("-backends is required (comma-separated host:port list)")
	}
	gw, err := gateway.New(gateway.Config{
		Backends:       strings.Split(*backends, ","),
		VirtualNodes:   *vnodes,
		MaxAttempts:    *attempts,
		AttemptTimeout: *attemptT,
		HedgeAfter:     *hedge,
		Rate:           *rate,
		Burst:          *burst,
		HealthInterval: *health,
		EjectAfter:     *eject,
		Breaker: gateway.BreakerConfig{
			FailThreshold: *brkFail,
			Cooldown:      *brkCool,
		},
	})
	if err != nil {
		return err
	}
	defer gw.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Same discovery protocol as cmd/serve: harnesses scrape this line.
	fmt.Printf("gateway: listening on %s (backends=%d attempts=%d hedge=%v)\n",
		ln.Addr(), len(gw.Backends()), *attempts, *hedge)

	hs := &http.Server{Handler: gw.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "gateway: signal received, draining")
	gw.NotReady()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "gateway: shutdown:", err)
	}
	m := gw.Metrics()
	fmt.Fprintf(os.Stderr,
		"gateway: drained requests=%d retries=%d hedges=%d hedge_wins=%d breaker_trips=%d ejections=%d rate_limited=%d unroutable=%d\n",
		m.Requests.Load(), m.Retries.Load(), m.Hedges.Load(), m.HedgeWins.Load(),
		m.BreakerTrips.Load(), m.Ejections.Load(), m.RateLimited.Load(), m.Unroutable.Load())
	return nil
}
