package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pdb"
	"repro/internal/server"
	"repro/internal/wal"
)

// pdbd is one in-process pdbd, assembled the way cmd/pdbd assembles it at
// its default flags with -data-dir: server.New with ingest batching (256
// updates, no extra wait) and a 64-entry cache on a shared obs.Registry; a
// WAL on a DirBackend with fsync=always, wal-batch 64 and snapshot-every
// 4096, attached, plus the baseline snapshot. It serves on a loopback
// listener to a client limited to two connections.
type pdbd struct {
	srv     *server.Server
	wal     *wal.WAL
	backend wal.Backend
	logged  *atomic.Int64 // bytes appended to log segments; traced runs only
	reg     *obs.Registry
	tracer  *serverTracer // nil when untraced

	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	dir    string
}

// walFlushPolicy states the durability settings in the output.
const walFlushPolicy = "fsync=always wal-batch=64 wal-maxwait=0 snapshot-every=4096 ingest-batch=256 ingest-maxwait=0"

func startPDBD(tid *pdb.TID, dir string, traced bool, shapes []string) (*pdbd, error) {
	d := &pdbd{reg: obs.NewRegistry(), dir: dir, served: make(chan error, 1)}
	cfg := server.Config{
		CacheSize:     64,
		IngestBatch:   256,
		IngestMaxWait: 0,
		Metrics:       d.reg,
		Logger:        slog.New(slog.NewTextHandler(os.Stderr, nil)),
	}
	if traced {
		// Every request is "slow", so the server logs each one's stage
		// breakdown into the tracer.
		d.tracer = newServerTracer()
		cfg.SlowQuery = time.Nanosecond
		cfg.Logger = slog.New(d.tracer)
	}
	srv, err := server.New(tid, cfg)
	if err != nil {
		return nil, err
	}
	d.srv = srv
	b, err := wal.NewDirBackend(dir)
	if err != nil {
		return nil, err
	}
	d.backend = b
	if traced {
		cb := &countingBackend{Backend: b}
		d.backend, d.logged = cb, &cb.logBytes
	}
	w, rec, err := wal.Open(wal.Options{
		Backend:       d.backend,
		BatchSize:     64,
		Sync:          wal.SyncAlways,
		SyncEvery:     50 * time.Millisecond,
		SnapshotEvery: 4096,
		Metrics:       wal.NewMetrics(d.reg),
	})
	if err != nil {
		return nil, fmt.Errorf("wal open %s: %w", dir, err)
	}
	if rec.Seq != 0 || rec.SnapshotSeq != 0 {
		w.Kill()
		return nil, fmt.Errorf("wal dir %s is not fresh", dir)
	}
	srv.AttachWAL(w)
	d.wal = w
	if err := w.Snapshot(); err != nil {
		d.close()
		return nil, fmt.Errorf("baseline snapshot: %w", err)
	}
	for _, q := range shapes {
		if err := srv.Preregister(q); err != nil {
			d.close()
			return nil, fmt.Errorf("preregister %q: %w", q, err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	var h http.Handler = srv
	if traced {
		h = d.tracer.wrap(srv)
	}
	d.hs = &http.Server{Handler: h}
	go func() { d.served <- d.hs.Serve(ln) }()
	d.url = "http://" + ln.Addr().String()
	d.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}
	return d, nil
}

// post sends one request and returns its status and body.
func (d *pdbd) post(path string, body []byte, op int) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, d.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if d.tracer != nil && op >= 0 {
		req.Header.Set(opHeader, strconv.Itoa(op))
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, err
}

// close drains the server (closing the WAL gracefully unless it was killed),
// stops the listener and its serving goroutine, and removes the data dir.
func (d *pdbd) close() error {
	var errs []error
	if !d.srv.Shutdown(5 * time.Second) {
		errs = append(errs, errors.New("pdbd drain incomplete"))
	}
	if d.hs != nil {
		d.client.CloseIdleConnections()
		if err := d.hs.Close(); err != nil {
			errs = append(errs, err)
		}
		if err := <-d.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if err := os.RemoveAll(d.dir); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// countingBackend counts the bytes the WAL appends to its log segments
// (snapshots excluded), for wal.bytes_per_update.
type countingBackend struct {
	wal.Backend
	logBytes atomic.Int64
}

func (c *countingBackend) Create(name string) (wal.File, error) {
	f, err := c.Backend.Create(name)
	if err != nil || !strings.HasPrefix(name, "wal-") {
		return f, err
	}
	return &countingFile{File: f, n: &c.logBytes}, nil
}

type countingFile struct {
	wal.File
	n *atomic.Int64
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.n.Add(int64(n))
	return n, err
}
