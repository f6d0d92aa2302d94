package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's side of the boundary. Times are nanoseconds since the
// tracer's origin; Parent is the ID of the span whose work caused this
// one (0 for a root); Run groups the spans of one request.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Run    int32  `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op returning span ID 0, so the
// measured code paths are shared between the two modes.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	// cur is the innermost open span of the driving goroutine; sources
	// called synchronously from it parent their spans there.
	cur int32
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, run int32) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: run, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// current returns the driving goroutine's innermost open span.
func (t *tracer) current() int32 {
	if t == nil {
		return 0
	}
	return t.cur
}

// push opens a span on the driving goroutine and makes it current;
// pop closes it and restores the previous current span.
func (t *tracer) push(name string, run int32) (id, prev int32) {
	if t == nil {
		return 0, 0
	}
	prev = t.cur
	id = t.begin(name, prev, run)
	t.cur = id
	return id, prev
}

func (t *tracer) pop(id, prev int32) {
	if t == nil {
		return
	}
	t.end(id)
	t.cur = prev
}

// layerOf maps a span name to the layer that owns its self time.
// evt.Estimator.HyperSample's self time — after its sampling child —
// is the maxima reduction and the MLE fit, so it belongs to weibull.
func layerOf(name string) string {
	if name == "evt.Estimator.HyperSample" {
		return "weibull"
	}
	return name[:strings.IndexByte(name, '.')]
}

// spanStats summarizes the recorded spans: per-name count and total
// duration, and per-name total self time (duration minus the union of
// the child spans' intervals; children running on worker goroutines
// may overlap).
type spanStats struct {
	count map[string]int
	total map[string]time.Duration
	self  map[string]time.Duration
}

func (t *tracer) stats() spanStats {
	st := spanStats{count: map[string]int{}, total: map[string]time.Duration{}, self: map[string]time.Duration{}}
	children := map[int32][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		st.count[s.Name]++
		st.total[s.Name] += d
		st.self[s.Name] += d - covered(children[s.ID])
	}
	return st
}

// covered returns the length of the union of the spans' intervals.
func covered(ss []span) time.Duration {
	if len(ss) == 0 {
		return 0
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var sum int64
	lo, hi := ss[0].Start, ss[0].End
	for _, s := range ss[1:] {
		if s.Start > hi {
			sum += hi - lo
			lo, hi = s.Start, s.End
			continue
		}
		if s.End > hi {
			hi = s.End
		}
	}
	return time.Duration(sum + hi - lo)
}

// layerSelf sums self time by owning layer.
func (st spanStats) layerSelf() map[string]time.Duration {
	out := map[string]time.Duration{}
	for name, d := range st.self {
		out[layerOf(name)] += d
	}
	return out
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, f.Close()
}
