package main

import (
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/wal"
)

// span is one timed interval of the traced replay. Start and End are
// nanoseconds since the tracer's origin; Parent indexes the span that caused
// it (-1 for a top-level span).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory until the benchmark writes them out. Spans
// nest through a stack on the driving goroutine (push/pop); spans opened on
// other goroutines name their parent explicitly (begin/end). All methods are
// safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: t.now(), End: -1, Parent: parent})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.now()
}

// push opens a span under the innermost span of the driving goroutine.
func (t *tracer) push(name string) int {
	id := t.begin(name, t.top())
	t.mu.Lock()
	t.stack = append(t.stack, id)
	t.mu.Unlock()
	return id
}

// pop closes the innermost span of the driving goroutine.
func (t *tracer) pop() {
	t.mu.Lock()
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.mu.Unlock()
	t.end(id)
}

// top returns the innermost open span of the driving goroutine, or -1.
func (t *tracer) top() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// layerPrefixes name the spans that belong to a layer of the system; any
// other span (the replay root, for instance) is driver time.
var layerPrefixes = []string{"core.", "serve.", "wal.", "xmldb."}

func isLayer(name string) bool {
	for _, p := range layerPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

type interval struct{ lo, hi int64 }

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total int64
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.lo <= cur.hi:
			cur.hi = max(cur.hi, iv.hi)
		default:
			total += cur.hi - cur.lo
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// selfTimes sums, per span name, each span's duration minus the part of it
// that its children cover. Children running concurrently with each other
// count once.
func selfTimes(spans []span) map[string]time.Duration {
	children := make([][]interval, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(children[i], s.Start, s.End))
	}
	return out
}

// coverage is the share of span root's wall time that layer spans cover.
func coverage(spans []span, root int) float64 {
	var ivs []interval
	for _, s := range spans {
		if isLayer(s.Name) {
			ivs = append(ivs, interval{s.Start, s.End})
		}
	}
	r := spans[root]
	if r.End <= r.Start {
		return 0
	}
	return float64(covered(ivs, r.Start, r.End)) / float64(r.End-r.Start)
}

// timedStorage wraps a wal.Storage so that every write and fsync the log
// issues is recorded as a span under the driving goroutine's current span.
type timedStorage struct {
	wal.Storage
	tr *tracer
}

func (s timedStorage) Create(name string) (wal.File, error) {
	f, err := s.Storage.Create(name)
	if err != nil {
		return nil, err
	}
	return timedFile{File: f, tr: s.tr}, nil
}

func (s timedStorage) Append(name string) (wal.File, error) {
	f, err := s.Storage.Append(name)
	if err != nil {
		return nil, err
	}
	return timedFile{File: f, tr: s.tr}, nil
}

type timedFile struct {
	wal.File
	tr *tracer
}

func (f timedFile) Write(p []byte) (int, error) {
	id := f.tr.begin("wal.write", f.tr.top())
	defer f.tr.end(id)
	return f.File.Write(p)
}

func (f timedFile) Sync() error {
	id := f.tr.begin("wal.sync", f.tr.top())
	defer f.tr.end(id)
	return f.File.Sync()
}
