package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one interval of the trace, written out as a JSON line. Spans of
// one op share Trace; Parent is -1 for the op's root.
type span struct {
	Trace  int     `json:"trace"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	child  float64 // summed child durations, for self time
}

// spanLog keeps a run's spans in memory until the run ends.
type spanLog struct{ spans []span }

// add records a span and returns its id.
func (l *spanLog) add(trace, parent int, name, layer string, start, end time.Duration) int {
	id := len(l.spans)
	s := span{Trace: trace, ID: id, Parent: parent, Name: name, Layer: layer, Start: us(start), End: us(end)}
	l.spans = append(l.spans, s)
	if parent >= 0 {
		l.spans[parent].child += s.End - s.Start
	}
	return id
}

// selfByLayer sums each layer's self time — a span's duration minus the
// part its children cover — in microseconds.
func (l *spanLog) selfByLayer() map[string]float64 {
	out := map[string]float64{}
	for _, s := range l.spans {
		out[s.Layer] += s.End - s.Start - s.child
	}
	return out
}

// ledgerNotes renders the self time per layer, per op, largest first.
func (l *spanLog) ledgerNotes(rep *report, ops int, unit string) {
	self := l.selfByLayer()
	layers := make([]string, 0, len(self))
	for k := range self {
		layers = append(layers, k)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	var b strings.Builder
	for _, k := range layers {
		v := self[k] / float64(ops)
		if unit == "ms" {
			v /= 1e3
		}
		fmt.Fprintf(&b, " %s=%.3f%s", k, v, unit)
	}
	rep.note("ledger self time per op (%d ops):%s", ops, b.String())
}

// writeFile writes the spans as JSON lines.
func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opHeader carries the benchmark's op id to the handler wrapper.
const opHeader = "X-Pdbbench-Op"

// stage is one entry of the server's per-request stage breakdown.
type stage struct {
	name string
	dur  time.Duration
}

// handlerRec is what the traced server recorded for one op: the interval
// spent inside Server.ServeHTTP and the server's own stage breakdown of it.
type handlerRec struct {
	start, end time.Time
	stages     []stage
	cached     bool // the slow-log "cached" attribute: plan or frozen cache hit
}

// serverTracer wraps the pdbd handler to time ServeHTTP per op, and is the
// slog handler of the traced server: with Config.SlowQuery at its minimum
// every request is logged with its stage breakdown, and the record is
// matched to the op being served on the logging goroutine.
type serverTracer struct {
	mu      sync.Mutex
	serving map[int64]int // goroutine id -> op id inside ServeHTTP
	recs    map[int]*handlerRec
}

func newServerTracer() *serverTracer {
	return &serverTracer{serving: map[int64]int{}, recs: map[int]*handlerRec{}}
}

func (t *serverTracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.Header.Get(opHeader))
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		g := goid()
		rec := &handlerRec{}
		t.mu.Lock()
		t.serving[g] = id
		t.recs[id] = rec
		t.mu.Unlock()
		rec.start = time.Now()
		h.ServeHTTP(w, r)
		rec.end = time.Now()
		t.mu.Lock()
		delete(t.serving, g)
		t.mu.Unlock()
	})
}

func (t *serverTracer) rec(id int) *handlerRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recs[id]
}

func (t *serverTracer) Enabled(context.Context, slog.Level) bool { return true }
func (t *serverTracer) WithAttrs([]slog.Attr) slog.Handler       { return t }
func (t *serverTracer) WithGroup(string) slog.Handler            { return t }

func (t *serverTracer) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "slow request" {
		return nil
	}
	var stages []stage
	cached := false
	r.Attrs(func(a slog.Attr) bool {
		switch a.Key {
		case "stages":
			stages = parseStages(a.Value.String())
		case "cached":
			cached = a.Value.Kind() == slog.KindBool && a.Value.Bool()
		}
		return true
	})
	g := goid()
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.serving[g]; ok {
		t.recs[id].stages = stages
		t.recs[id].cached = cached
	}
	return nil
}

// parseStages reads obs.Summary.StageString ("parse=12.5us plan=3.1us").
func parseStages(s string) []stage {
	var out []stage
	for _, f := range strings.Fields(s) {
		name, val, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(val, "us"), 64)
		if err != nil {
			continue
		}
		out = append(out, stage{name: name, dur: time.Duration(v * 1e3)})
	}
	return out
}

// goid returns the current goroutine's id from the runtime's stack header;
// a slog handler has no other way to know which request it is logging for.
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}
