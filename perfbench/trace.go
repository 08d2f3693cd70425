package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around a call into the program's public API.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = none
	Name   string `json:"name"`
	Run    string `json:"run"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out once, at the end
// of the run. A nil *tracer records nothing and costs one branch per
// call site, which is how the untraced run uses it.
type tracer struct {
	run   string
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span under parent and returns its id (0 when t is nil).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Run: t.run, Start: now})
	return len(t.spans)
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// write stores every span as one JSON document at path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, err := json.Marshal(struct {
		Run   string `json:"run"`
		Spans []span `json:"spans"`
	}{t.run, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
