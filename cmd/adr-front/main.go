// Command adr-front runs the ADR front-end process: it accepts client
// connections (cmd/adr-query, or anything speaking the frontend package's
// protocol: JSON control lines, binary chunk frames), relays each range query
// to every back-end node's control port, and streams the merged output back
// to the client.
//
//	adr-front -listen :7000 -nodes :7200,:7201,:7202
//
// With -metrics-addr the front-end also serves /metrics, /debug/queries and
// /healthz over HTTP; -slow-query logs every query slower than the given
// duration to stderr.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"adr/internal/frontend"
	"adr/internal/metrics"
)

// options holds every adr-front flag value. Flags register through
// registerFlags so the README flag table can be cross-checked by a test.
type options struct {
	listen      *string
	nodes       *string
	metricsAddr *string
	slowQuery   *time.Duration
}

// registerFlags declares the front-end's full flag set on fs.
func registerFlags(fs *flag.FlagSet) *options {
	return &options{
		listen:      fs.String("listen", ":7000", "client listen address"),
		nodes:       fs.String("nodes", "", "comma-separated back-end control addresses (required)"),
		metricsAddr: fs.String("metrics-addr", "", "HTTP listen address for /metrics and /debug/queries (disabled when empty)"),
		slowQuery:   fs.Duration("slow-query", time.Second, "log queries slower than this (0 disables)"),
	}
}

func main() {
	opt := registerFlags(flag.CommandLine)
	flag.Parse()
	listen, nodes, metricsAddr, slowQuery := opt.listen, opt.nodes, opt.metricsAddr, opt.slowQuery

	if *nodes == "" {
		fmt.Fprintln(os.Stderr, "adr-front: -nodes is required")
		os.Exit(2)
	}
	addrs := strings.Split(*nodes, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	srv, err := frontend.StartOptions(*listen, addrs, frontend.Options{
		SlowQueryThreshold: *slowQuery,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "adr-front:", err)
		os.Exit(1)
	}
	srv.Queries().Logger = log.New(os.Stderr, "adr-front: ", log.LstdFlags)
	fmt.Printf("adr-front: serving clients on %s, %d back-end nodes\n", srv.Addr(), len(addrs))

	if *metricsAddr != "" {
		ms, err := metrics.Serve(*metricsAddr, metrics.Default, srv.Queries())
		if err != nil {
			fmt.Fprintln(os.Stderr, "adr-front: metrics:", err)
			srv.Close()
			os.Exit(1)
		}
		defer ms.Close()
		fmt.Printf("adr-front: metrics on http://%s/metrics\n", ms.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	srv.Close()
}
