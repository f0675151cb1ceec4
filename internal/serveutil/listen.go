package serveutil

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// ServeConfig configures ListenAndServe.
type ServeConfig struct {
	// Name prefixes the lifecycle lines on Stderr ("<name>: listening
	// on http://ADDR", "<name>: <sig>, draining").
	Name string
	// Addr is the TCP listen address; ":0" binds an ephemeral port.
	Addr string
	// Handler serves the requests.
	Handler http.Handler
	// Stderr receives the lifecycle lines; scripts parse the listening
	// line for the bound address.
	Stderr io.Writer
	// Ready, when non-nil, receives the bound address once the listener
	// is up (tests use it instead of parsing Stderr).
	Ready chan<- string
	// Health, when non-nil, has StartDrain called at the instant a
	// shutdown signal arrives — before the drain grace and long before
	// the listener closes — so /readyz flips while the node still
	// answers.
	Health *Health
	// DrainGrace holds the listener open (readiness already 503) for
	// this long after the shutdown signal, giving probers a window to
	// observe the flip and stop routing here before in-flight draining
	// begins. 0 drains immediately (the single-node behavior).
	DrainGrace time.Duration
}

// shutdownTimeout bounds the in-flight drain after the drain grace.
const shutdownTimeout = 10 * time.Second

// readHeaderTimeout bounds how long a request header may take to
// arrive, counted from accept for a connection's first request and from
// the first bytes of each later one: a client that sends half a header
// and stops loses its connection instead of holding a goroutine and its
// buffers forever. Bodies stay untimed (a streamed /solve/batch body may
// take minutes), and so do idle keep-alive connections.
var readHeaderTimeout = 10 * time.Second

// ListenAndServe runs the shared serve lifecycle: bind, announce,
// serve until SIGINT/SIGTERM, then drain — flip readiness, hold the
// drain grace, and http.Server.Shutdown (which closes the listener
// immediately and waits for in-flight requests). The grace window
// exists because Shutdown's listener close is instantaneous: without
// it, a prober would learn about the drain only from connection
// failures rather than a clean 503.
func ListenAndServe(cfg ServeConfig) error {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: cfg.Handler, ReadHeaderTimeout: readHeaderTimeout}
	fmt.Fprintf(cfg.Stderr, "%s: listening on http://%s\n", cfg.Name, ln.Addr())
	if cfg.Ready != nil {
		cfg.Ready <- ln.Addr().String()
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case sig := <-sigs:
		fmt.Fprintf(cfg.Stderr, "%s: %v, draining\n", cfg.Name, sig)
		if cfg.Health != nil {
			cfg.Health.StartDrain()
		}
		if cfg.DrainGrace > 0 {
			select {
			case <-time.After(cfg.DrainGrace):
			case err := <-serveErr:
				// The server died during the grace window; nothing left
				// to drain.
				return err
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		<-serveErr // http.ErrServerClosed
		return nil
	}
}
