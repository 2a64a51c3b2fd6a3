// Command adr-node runs one ADR back-end node daemon: it opens the farm's
// per-disk stores, loads the shared dataset manifest, joins the TCP mesh of
// the parallel back-end, and serves query requests from the front-end.
//
// A 3-node back-end on one host:
//
//	adr-node -id 0 -mesh :7100,:7101,:7102 -control :7200 -data /srv/adr &
//	adr-node -id 1 -mesh :7100,:7101,:7102 -control :7201 -data /srv/adr &
//	adr-node -id 2 -mesh :7100,:7101,:7102 -control :7202 -data /srv/adr &
//
// With -metrics-addr each daemon also serves /metrics (Prometheus text, or
// JSON with ?format=json), /debug/queries (in-flight and recent queries) and
// /healthz over HTTP.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"adr/internal/backend"
	"adr/internal/metrics"
	"adr/internal/rpc"
)

// options holds every adr-node flag value. Flags register through
// registerFlags so the README flag table can be cross-checked by a test.
type options struct {
	id           *int
	mesh         *string
	control      *string
	dataDir      *string
	accmem       *int64
	metricsAddr  *string
	sendTimeout  *time.Duration
	dialRetry    *time.Duration
	queryTimeout *time.Duration
	cacheBytes   *int64
	maxQueries   *int
	fwdWindow    *int64
	calibFile    *string
}

// registerFlags declares the daemon's full flag set on fs.
func registerFlags(fs *flag.FlagSet) *options {
	return &options{
		id:           fs.Int("id", -1, "this node's id (required)"),
		mesh:         fs.String("mesh", "", "comma-separated mesh addresses for all nodes (required)"),
		control:      fs.String("control", "", "control listen address for the front-end (required)"),
		dataDir:      fs.String("data", "", "farm directory (required)"),
		accmem:       fs.Int64("accmem", 0, "per-node accumulator memory bytes (default 8 MiB)"),
		metricsAddr:  fs.String("metrics-addr", "", "HTTP listen address for /metrics and /debug/queries (disabled when empty)"),
		sendTimeout:  fs.Duration("send-timeout", 0, "mesh send timeout per peer; 0 uses the 30s default, negative disables"),
		dialRetry:    fs.Duration("dial-retry", 0, "bound on mesh establishment: retrying unreachable peers and waiting for peers to dial in (default 30s)"),
		queryTimeout: fs.Duration("query-timeout", 0, "per-query execution deadline on this node; 0 means 30s while -max-queries is on, unbounded otherwise"),
		cacheBytes:   fs.Int64("cache-bytes", 256<<20, "chunk cache budget in bytes (0 disables caching)"),
		maxQueries:   fs.Int("max-queries", 64, "max concurrently executing queries; a request beyond it waits for a slot (0 = unbounded)"),
		fwdWindow:    fs.Int64("fwd-window-bytes", 0, "per-peer in-flight forwarded-byte window; senders block until receivers consume (0 disables)"),
		calibFile:    fs.String("calibration-file", "", "JSON file persisting this node's cost-model calibration across restarts (in-memory only when empty)"),
	}
}

func main() {
	opt := registerFlags(flag.CommandLine)
	flag.Parse()
	id, mesh, control, dataDir := opt.id, opt.mesh, opt.control, opt.dataDir
	metricsAddr, cacheBytes, maxQueries := opt.metricsAddr, opt.cacheBytes, opt.maxQueries

	if *id < 0 || *mesh == "" || *control == "" || *dataDir == "" {
		fmt.Fprintln(os.Stderr, "adr-node: -id, -mesh, -control and -data are required")
		os.Exit(2)
	}
	addrs := strings.Split(*mesh, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	if *id >= len(addrs) {
		fmt.Fprintf(os.Stderr, "adr-node: id %d outside mesh of %d nodes\n", *id, len(addrs))
		os.Exit(2)
	}
	srv, err := backend.Start(backend.Config{
		Node:            rpc.NodeID(*id),
		MeshAddrs:       addrs,
		ControlAddr:     *control,
		DataDir:         *dataDir,
		AccMemBytes:     *opt.accmem,
		SendTimeout:     *opt.sendTimeout,
		DialRetry:       *opt.dialRetry,
		QueryTimeout:    *opt.queryTimeout,
		CacheBytes:      *cacheBytes,
		MaxQueries:      *maxQueries,
		Flow:            rpc.Flow{WindowBytes: *opt.fwdWindow},
		CalibrationFile: *opt.calibFile,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "adr-node:", err)
		os.Exit(1)
	}
	fmt.Printf("adr-node %d: mesh up (%d nodes), control on %s\n", *id, len(addrs), srv.ControlAddr())
	if *cacheBytes > 0 {
		fmt.Printf("adr-node %d: chunk cache %d MiB\n", *id, *cacheBytes>>20)
	}
	if *maxQueries > 0 {
		fmt.Printf("adr-node %d: admission control on: max %d concurrent queries, excess queue\n", *id, *maxQueries)
	}
	if *opt.fwdWindow > 0 {
		fmt.Printf("adr-node %d: forwarding flow control: window %d B/peer\n", *id, *opt.fwdWindow)
	}
	if *opt.calibFile != "" {
		fmt.Printf("adr-node %d: cost-model calibration persisted to %s\n", *id, *opt.calibFile)
	}

	if *metricsAddr != "" {
		ms, err := metrics.Serve(*metricsAddr, metrics.Default, srv.Queries())
		if err != nil {
			fmt.Fprintln(os.Stderr, "adr-node: metrics:", err)
			srv.Close()
			os.Exit(1)
		}
		defer ms.Close()
		fmt.Printf("adr-node %d: metrics on http://%s/metrics\n", *id, ms.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("adr-node: shutting down")
	srv.Close()
}
