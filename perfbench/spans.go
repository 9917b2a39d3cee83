package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one of the benchmark's own spans: a call into one layer,
// timed from outside. Spans of one run share RunID; Parent is 0 for a
// root span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	RunID   string `json:"run_id"`
}

// spanLog keeps the run's spans in memory until the run ends. It is
// safe for concurrent use.
type spanLog struct {
	runID string
	t0    time.Time

	mu    sync.Mutex
	spans []span
}

func newSpanLog(runID string) *spanLog {
	return &spanLog{runID: runID, t0: time.Now()}
}

// start opens a span under parent (0 for none) and returns its ID and
// closer. The closer returns the span's duration.
func (l *spanLog) start(name string, parent int) (int, func() time.Duration) {
	begin := time.Now()
	l.mu.Lock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, StartNS: begin.Sub(l.t0).Nanoseconds(), RunID: l.runID})
	l.mu.Unlock()
	return id, func() time.Duration {
		end := time.Now()
		l.mu.Lock()
		l.spans[id-1].EndNS = end.Sub(l.t0).Nanoseconds()
		l.mu.Unlock()
		return end.Sub(begin)
	}
}

// snapshot returns a copy of every span recorded so far.
func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// writeTraceArtifacts writes the traced run's spans and its per-layer
// table into env.out. The CPU profiles are already there.
func writeTraceArtifacts(env *runEnv, out *outcome) error {
	if err := os.MkdirAll(env.out, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(env.out, "spans.jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range env.spans.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	table := struct {
		RunID   string             `json:"run_id"`
		Seed    int64              `json:"seed"`
		Metrics map[string]float64 `json:"metrics"`
		Notes   []string           `json:"notes"`
	}{env.spans.runID, env.seed, out.metrics, out.notes}
	blob, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(env.out, "layers.json"), append(blob, '\n'), 0o644)
}
