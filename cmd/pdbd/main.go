// Command pdbd serves probabilistic-database queries over HTTP: the network
// front end of the serving stack (compiled plans + live incremental views).
//
// Usage:
//
//	pdbd -i instance.pdb [-addr :8080] [-cache N] [-q 'R(?x)']
//	     [-data-dir DIR] [-fsync always|interval|off] [-snapshot-every N]
//	     [-ingest-batch N] [-ingest-maxwait DUR]
//	     [-log-format text|json] [-slow-query DUR] [-debug-addr :6060]
//
// The instance file uses pdbcli's format (see internal/pdbio): it must be
// tuple-independent — plain 'fact' lines, or one positive event per cfact —
// because the live store maintains per-tuple probabilities under /update.
//
// Endpoints (JSON bodies; see internal/server for the full shapes):
//
//	POST /query   {"query": "R(?x) & S(?x,?y)"}           live-view answer
//	POST /batch   {"query": ..., "assignments": [{...}]}  multi-lane sweep
//	POST /update  {"updates": [{"op":"set","id":0,"p":.5}]}
//	GET  /watch                                           SSE delta stream (?full=1: full state)
//	GET  /healthz, /statsz, /metrics
//
// -data-dir makes the server crash-safe: every acknowledged /update commit
// is written to a write-ahead log in DIR before the response goes out, and
// periodic snapshots keep recovery fast. A fresh directory is seeded from
// -i (and a baseline snapshot written, so the instance file is not needed
// again); a directory holding state ignores -i and recovers exactly the
// pre-crash store — same commit sequence, same fact ids — re-registering
// the views the last snapshot recorded so the plan cache starts warm.
//
// Observability: /metrics serves the Prometheus exposition of the whole
// stack (request latencies, cache events, commit and fsync histograms);
// -slow-query logs any request over the threshold with its per-stage span
// breakdown; -debug-addr opens a second listener carrying net/http/pprof
// and a /metrics mirror, so profilers and scrapers never contend with (or
// get drained with) serving traffic. All logging is structured (log/slog);
// -log-format json emits one JSON object per line for log shippers.
//
// -q pre-registers a query shape so the first client request is already a
// cache hit. On SIGINT/SIGTERM the server drains: new requests get 503,
// watch streams close, in-flight requests finish, and the log is sealed
// under a final clean snapshot (planned restarts replay nothing).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/obs"
	"repro/internal/pdb"
	"repro/internal/pdbio"
	"repro/internal/server"
	"repro/internal/wal"
)

func main() {
	inPath := flag.String("i", "", "instance file (default: stdin; ignored when -data-dir holds state)")
	addr := flag.String("addr", ":8080", "listen address")
	cacheSize := flag.Int("cache", 64, "max cached query shapes (live views)")
	preQ := flag.String("q", "", "pre-register this conjunctive query, e.g. 'R(?x) & S(?x,?y)'")
	drain := flag.Duration("drain", 10*time.Second, "graceful drain timeout on shutdown")
	dataDir := flag.String("data-dir", "", "durability directory (WAL + snapshots); empty: in-memory only")
	fsync := flag.String("fsync", "always", "WAL fsync policy: always | interval | off")
	fsyncEvery := flag.Duration("fsync-interval", 50*time.Millisecond, "background fsync period under -fsync interval")
	walBatch := flag.Int("wal-batch", 64, "group-commit batch size")
	walMaxWait := flag.Duration("wal-maxwait", 0, "extra group-commit accumulation window (0: the in-flight flush itself is the window)")
	ingestBatch := flag.Int("ingest-batch", 256, "max updates per merged /update commit; concurrent requests coalesce up to this (0: every request commits alone)")
	ingestMaxWait := flag.Duration("ingest-maxwait", 0, "extra /update coalescing window (0: the in-flight commit itself is the window)")
	snapEvery := flag.Uint64("snapshot-every", 4096, "snapshot + truncate the log every N commits (0: only on shutdown)")
	logFormat := flag.String("log-format", "text", "log output format: text | json")
	slowQuery := flag.Duration("slow-query", 0, "log requests slower than this with their span breakdown (0: off)")
	debugAddr := flag.String("debug-addr", "", "debug listener (net/http/pprof + /metrics mirror); empty: off")
	flag.Parse()

	logger := newLogger(*logFormat)
	slog.SetDefault(logger)

	reg := obs.NewRegistry()
	cfg := server.Config{
		CacheSize:     *cacheSize,
		IngestBatch:   *ingestBatch,
		IngestMaxWait: *ingestMaxWait,
		Options:       core.Options{},
		Metrics:       reg,
		SlowQuery:     *slowQuery,
		Logger:        logger,
	}
	var s *server.Server
	if *dataDir == "" {
		tid, err := loadInstance(*inPath)
		if err != nil {
			fatal(logger, err)
		}
		s, err = server.New(tid, cfg)
		if err != nil {
			fatal(logger, err)
		}
		logger.Info("loaded instance (no durability; set -data-dir)", "facts", tid.NumFacts())
	} else {
		var err error
		s, err = openDurable(*dataDir, *inPath, cfg, wal.Options{
			BatchSize:     *walBatch,
			MaxWait:       *walMaxWait,
			Sync:          parseFsync(logger, *fsync),
			SyncEvery:     *fsyncEvery,
			SnapshotEvery: *snapEvery,
			Metrics:       wal.NewMetrics(reg),
		}, logger)
		if err != nil {
			fatal(logger, err)
		}
	}
	if *preQ != "" {
		if err := s.Preregister(*preQ); err != nil {
			fatal(logger, fmt.Errorf("-q: %w", err))
		}
	}

	if *debugAddr != "" {
		go serveDebug(logger, *debugAddr, reg)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: s}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("serving", "addr", *addr, "slow_query", *slowQuery)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fatal(logger, err)
	case <-sig:
	}
	logger.Info("draining")
	if !s.Shutdown(*drain) {
		logger.Warn("drain incomplete (timeout or WAL close error), closing anyway")
	}
	httpSrv.Close()
}

// newLogger builds the process logger in the requested format (both write to
// stderr, keeping stdout free for shell pipelines).
func newLogger(format string) *slog.Logger {
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	fmt.Fprintf(os.Stderr, "pdbd: -log-format %q: want text or json\n", format)
	os.Exit(1)
	panic("unreachable")
}

// serveDebug runs the side listener: pprof's handlers on an explicit mux
// (never the DefaultServeMux, which would leak them onto the serving
// address) plus a /metrics mirror that stays reachable even when the main
// listener is saturated.
func serveDebug(logger *slog.Logger, addr string, reg *obs.Registry) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", reg.Handler())
	logger.Info("debug listener (pprof + metrics)", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Error("debug listener failed", "err", err)
	}
}

// loadInstance parses the -i file (or stdin) into a TID instance.
func loadInstance(inPath string) (*pdb.TID, error) {
	r := os.Stdin
	if inPath != "" {
		f, err := os.Open(inPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	c, p, err := pdbio.ParseInstance(bufio.NewScanner(r))
	if err != nil {
		return nil, err
	}
	return pdbio.TIDFromInstance(c, p)
}

// openDurable opens (or recovers) the WAL in dir and returns a durable
// server over it. A directory with no recoverable state is seeded from the
// instance file and immediately baseline-snapshotted; a directory holding
// state is recovered exactly, ignoring -i.
func openDurable(dir, inPath string, cfg server.Config, opts wal.Options, logger *slog.Logger) (*server.Server, error) {
	b, err := wal.NewDirBackend(dir)
	if err != nil {
		return nil, err
	}
	opts.Backend = b
	w, rec, err := wal.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", dir, err)
	}
	fresh := rec.SnapshotSeq == 0 && rec.Seq == 0 && rec.Records == 0
	if fresh {
		tid, err := loadInstance(inPath)
		if err != nil {
			return nil, err
		}
		st, err := incr.NewStore(tid)
		if err != nil {
			return nil, err
		}
		s := server.NewFromStore(st, cfg)
		s.AttachWAL(w)
		// Baseline snapshot: from here on the data dir alone carries the
		// instance; -i is never consulted again.
		if err := w.Snapshot(); err != nil {
			return nil, fmt.Errorf("baseline snapshot: %w", err)
		}
		logger.Info("seeded data dir", "dir", dir, "facts", tid.NumFacts(), "fsync", opts.Sync.String())
		return s, nil
	}
	if inPath != "" {
		logger.Info("data dir holds state; ignoring -i", "dir", dir, "i", inPath)
	}
	s := server.NewFromStore(rec.Store, cfg)
	s.AttachWAL(w)
	warm := 0
	for _, q := range rec.Views {
		if err := s.Preregister(q); err != nil {
			logger.Warn("warm view failed", "query", q, "err", err)
			continue
		}
		warm++
	}
	logger.Info("recovered data dir",
		"dir", dir, "seq", rec.Seq, "snapshot_seq", rec.SnapshotSeq,
		"records", rec.Records, "torn_tail", rec.TornTail,
		"warm_views", warm, "fsync", opts.Sync.String())
	return s, nil
}

func parseFsync(logger *slog.Logger, s string) wal.SyncPolicy {
	switch s {
	case "always":
		return wal.SyncAlways
	case "interval":
		return wal.SyncInterval
	case "off":
		return wal.SyncOff
	}
	fatal(logger, fmt.Errorf("-fsync %q: want always, interval or off", s))
	panic("unreachable")
}

func fatal(logger *slog.Logger, err error) {
	logger.Error(err.Error())
	os.Exit(1)
}
