// Command worker runs one distributed-solve worker process: it
// executes walker shards on behalf of a coordinator (cmd/serve
// -workers, or a dist.Coordinator embedded elsewhere) over the small
// HTTP JSON protocol of internal/dist.
//
// Usage:
//
//	worker -addr :9101 -slots 4
//	worker -addr :9101 -slots 4 -stream -telemetry worker.ftdc
//	worker -addr :9101 -coordinator http://host:8080 -advertise http://me:9101
//
// With -coordinator, the worker enrolls itself in the coordinator's
// dynamic fleet: it registers at startup (retrying with backoff until
// the coordinator is up), heartbeats on -heartbeat so the coordinator's
// health monitor need not probe it, and deregisters — draining
// gracefully — on shutdown. -advertise is the URL the coordinator
// should dial back; it defaults to http://<hostname><addr port>.
//
// With -stream, dependent (exchange) shard runs negotiate streaming
// board sync: the worker keeps one persistent multiplexed binary
// connection to the coordinator's board and publishes deltas on
// change, instead of the periodic HTTP POST loop. A dead stream falls
// back to HTTP mid-run and re-dials on the next run. When a run
// request carries a progress feed (the coordinator's -speculate mode),
// the worker POSTs per-shard iteration counts on the requested cadence
// so the coordinator's straggler detector can see how far behind this
// shard is. With -telemetry FILE, per-walker iteration/cost samples
// are appended to FILE in the FTDC-style schema-delta encoding (decode
// with `experiments -ftdc-decode FILE`).
//
// Endpoints:
//
//	POST /v1/run              run a walker shard (blocks until done)
//	POST /v1/runs/{id}/cancel cancel an in-flight shard run
//	GET  /healthz             liveness + slot capacity and usage
//
// SIGINT/SIGTERM triggers a graceful shutdown: the listener drains,
// in-flight shard runs are cancelled, and their final (interrupted)
// statistics are delivered to the coordinator before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr           = flag.String("addr", ":9101", "listen address")
		slots          = flag.Int("slots", 0, "walker-slot capacity (0 = GOMAXPROCS)")
		boardSync      = flag.Duration("board-sync", 0, "fallback board-cache sync period for dependent (exchange) shard runs when the coordinator does not pin one (0 = 50ms)")
		stream         = flag.Bool("stream", false, "enable streaming board sync over the persistent binary transport (HTTP remains the fallback)")
		telemetryPath  = flag.String("telemetry", "", "append FTDC-style per-walker telemetry frames to this file (empty = off)")
		telemetryEvery = flag.Duration("telemetry-interval", time.Second, "telemetry sampling period")
		coordinator    = flag.String("coordinator", "", "coordinator base URL to register with for dynamic-fleet membership (empty = static fleet, no registration)")
		advertise      = flag.String("advertise", "", "worker base URL advertised to the coordinator (default http://<hostname><addr port>)")
		heartbeat      = flag.Duration("heartbeat", 0, "heartbeat period when registered with a coordinator (0 = 2s)")
	)
	flag.Parse()

	cfg := dist.WorkerConfig{Slots: *slots, BoardSync: *boardSync, Stream: *stream, TelemetryInterval: *telemetryEvery}
	if *telemetryPath != "" {
		f, err := os.Create(*telemetryPath)
		if err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		defer f.Close()
		cfg.Telemetry = telemetry.NewRecorder(f)
		log.Printf("worker: telemetry -> %s every %v", *telemetryPath, *telemetryEvery)
	}

	wk := dist.NewWorker(cfg)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           wk.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("worker: listening on %s (slots=%d)", *addr, wk.Slots())
		errc <- srv.ListenAndServe()
	}()

	var agent *dist.FleetAgent
	if *coordinator != "" {
		adv, err := advertiseURL(*advertise, *addr)
		if err != nil {
			return err
		}
		agent, err = dist.NewFleetAgent(dist.AgentConfig{
			Coordinator: *coordinator,
			Advertise:   adv,
			Worker:      wk,
			Interval:    *heartbeat,
			Logf:        log.Printf,
		})
		if err != nil {
			return fmt.Errorf("fleet agent: %w", err)
		}
		log.Printf("worker: enrolling with %s as %s", *coordinator, adv)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if agent != nil {
			agent.Close()
		}
		wk.Close()
		return err
	case sig := <-stop:
		log.Printf("worker: %v — shutting down", sig)
	}

	// Leave the fleet first (the coordinator marks us draining and stops
	// dispatching), then cancel in-flight runs so their handlers finish
	// (delivering interrupted stats), then drain the listener.
	if agent != nil {
		agent.Close()
	}
	wk.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("worker: listener shutdown: %v", err)
	}
	log.Printf("worker: drained cleanly")
	return nil
}

// advertiseURL resolves the base URL the coordinator dials back:
// -advertise verbatim when set, otherwise http://<hostname><addr port>
// (falling back to 127.0.0.1 when the hostname is unavailable).
func advertiseURL(advertise, addr string) (string, error) {
	if advertise != "" {
		return advertise, nil
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "", fmt.Errorf("cannot derive -advertise from -addr %q: %v", addr, err)
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		if h, err := os.Hostname(); err == nil && h != "" {
			host = h
		} else {
			host = "127.0.0.1"
		}
	}
	return "http://" + net.JoinHostPort(host, port), nil
}
