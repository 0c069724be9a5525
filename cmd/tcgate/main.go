// Command tcgate fronts a tcserved cluster with a consistent-hash
// sharding gateway: every job routes by its canonical config key onto a
// static ring of backend nodes (client.Sweep submits a sweep's cells as
// jobs, so they spread the same way), dead nodes are demoted (jobs
// re-hash to the next ring replica) and promoted back by readiness
// probes, and the nodes' content-addressed trace exports are proxied as
// a cluster-wide trace CDN — a workload's correct-path stream is
// captured at most once across the whole cluster.
//
// The gateway speaks the exact wire schema of one tcserved, so every
// existing client and tool points at it unchanged.
//
// Usage:
//
//	tcgate -listen :9090 -nodes http://10.0.0.1:8080,http://10.0.0.2:8080,http://10.0.0.3:8080
//	tcgate -listen :9090 -nodes node0=http://a:8080,node1=http://b:8080
//
// Each -nodes entry is either a bare URL (the node is named node<i> by
// list position) or name=URL. NAMES ARE THE SHARDING IDENTITY: keys
// hash onto names, so keep them stable across restarts and address
// changes or the whole keyspace reshuffles.
//
// Endpoints (all single-node routes, plus):
//
//	GET /v1/cluster    per-node health, demotion counts, ring size
//	GET /v1/trace/{id} collated cross-node span tree for one request ID
//	GET /metrics       gateway counters and node routability (tcgate_node_up{node=...})
//	GET /debug/spans   the gateway's own recent spans (?trace= filters)
//
// The gateway answers GET /healthz, GET /healthz/ready (503 while it
// drains or while no node is routable), GET /v1/passes and
// GET /v1/policies itself, from the same code and registries as a node,
// so the registries answer with every node down. Only jobs and trace
// exports go to a node, and a caller that gives up while its node works
// demotes no node.
//
// The gateway is where a distributed trace is born. Its front door,
// tcserved's own (internal/server), adopts or mints the X-Request-ID,
// echoes it on every response, writes one access line per request and
// opens a root span per /v1/ request; each backend attempt is a child
// span (so failover walks and Retry-After backoffs are visible retries)
// that the client forwards via X-Trace-Parent. The signal handling is
// tcserved's too (server.Serve): SIGQUIT dumps the span ring to
// -flight-dir without stopping the gateway, and SIGTERM or SIGINT flips
// readiness, lets proxied requests finish within -drain, stops the
// probes, logs "drained" and exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tcsim/internal/cluster"
	"tcsim/internal/obs"
	"tcsim/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process exit, so tests can drive the CLI
// in-process. It returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tcgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen        = fs.String("listen", "127.0.0.1:9090", "gateway listen address")
		nodesFlag     = fs.String("nodes", "", "comma-separated backends: URL or name=URL (names are the stable sharding identity)")
		replicas      = fs.Int("replicas", 0, "virtual nodes per backend on the hash ring (0 = 128)")
		probeInterval = fs.Duration("probe-interval", 250*time.Millisecond, "readiness probe spacing")
		probeTimeout  = fs.Duration("probe-timeout", 2*time.Second, "per-probe timeout")
		drainWait     = fs.Duration("drain", 30*time.Second, "graceful-drain deadline on SIGTERM/SIGINT")
		logFormat     = fs.String("log-format", "text", "structured log format: text or json")
		logLevel      = fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
		flightDir     = fs.String("flight-dir", "", "directory for SIGQUIT flight dumps of the recent-span ring (\"\" = working directory)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "tcgate: unexpected arguments %q\nrun 'tcgate -h' for usage\n", fs.Args())
		return 2
	}
	logger, err := obs.NewLogger(stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(stderr, "tcgate: %v\nrun 'tcgate -h' for usage\n", err)
		return 2
	}
	nodes, err := parseNodes(*nodesFlag)
	if err != nil {
		fmt.Fprintf(stderr, "tcgate: %v\nrun 'tcgate -h' for usage\n", err)
		return 2
	}

	g, err := cluster.New(cluster.Config{
		Nodes:         nodes,
		Replicas:      *replicas,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		Logger:        logger,
	})
	if err != nil {
		fmt.Fprintf(stderr, "tcgate: %v\n", err)
		return 2
	}
	g.Start()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Error("listen failed", "addr", *listen, "error", err.Error())
		return 1
	}
	for _, n := range nodes {
		logger.Info("backend", "node", n.Name, "url", n.URL)
	}
	logger.Info("listening", "url", "http://"+ln.Addr().String(), "nodes", len(nodes))
	fmt.Fprintf(stdout, "tcgate: listening on http://%s (%d nodes)\n", ln.Addr(), len(nodes))
	stop, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	context.AfterFunc(stop, cancel) // restore default signal behavior: a second signal kills us
	return server.Serve(stop, ln, g.Handler(), g, *drainWait, *flightDir, logger)
}

// parseNodes turns the -nodes flag into the backend list. Entries are
// "URL" (named node<i> by position) or "name=URL".
func parseNodes(s string) ([]cluster.Node, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("-nodes is required (comma-separated backend URLs)")
	}
	var out []cluster.Node
	for i, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			return nil, fmt.Errorf("-nodes entry %d is empty", i)
		}
		name, url, found := strings.Cut(entry, "=")
		if !found {
			name, url = fmt.Sprintf("node%d", i), entry
		}
		if name == "" || url == "" || !strings.Contains(url, "://") {
			return nil, fmt.Errorf("-nodes entry %q: want URL or name=URL with a scheme", entry)
		}
		out = append(out, cluster.Node{Name: name, URL: strings.TrimRight(url, "/")})
	}
	return out, nil
}
