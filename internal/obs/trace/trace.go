// Package trace is the pipeline's per-bot distributed tracing layer:
// one span per bot per stage plus sub-operation spans (page fetch,
// retry attempt, captcha solve, invite redirect, policy audit, honeypot
// settle, codehost fetch), correlated with the run/bot/experiment IDs
// the journal carries.
//
// It is the pipeline's only span system. Rather than serialize every
// span operation through one trace-wide mutex — ruinous for 20,915
// bots — it collects completed operations into per-shard append-only
// buffers, sharded by the scheduler worker that produced them. A worker
// only ever touches its own shard's mutex, so the collection path is
// contention-free at full paper scale and bot-level tracing costs low
// single-digit percent (see BENCH_TRACE.json). Run-level stage spans
// land on a control track.
//
// Ops are recorded only when they finish, which keeps the hot path to
// one buffered append and makes the buffers naturally crash-truncated:
// whatever was settled is in the buffer, nothing is half-written.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Level selects how much the tracer records.
type Level int

const (
	// LevelOff records nothing; every call is a near-free no-op.
	LevelOff Level = iota
	// LevelBots records one span per bot per stage plus scheduler
	// events (steals, queue depth) and run-level stage spans.
	LevelBots
	// LevelFull additionally records sub-operation spans inside each
	// bot-stage span (page fetches, retries, captcha solves, ...).
	LevelFull
)

// ParseLevel maps the CLI spelling to a Level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "", "off":
		return LevelOff, nil
	case "bots", "bot":
		return LevelBots, nil
	case "full", "ops":
		return LevelFull, nil
	}
	return LevelOff, fmt.Errorf("trace: unknown level %q (want off, bots, or full)", s)
}

func (l Level) String() string {
	switch l {
	case LevelBots:
		return "bots"
	case LevelFull:
		return "full"
	}
	return "off"
}

// Kind classifies a recorded operation.
type Kind uint8

const (
	// KindStage is one bot's trip through one pipeline stage.
	KindStage Kind = iota
	// KindOp is a sub-operation inside a stage (page_fetch, ...).
	KindOp
	// KindInstant is a point event (a steal, a stage boundary).
	KindInstant
	// KindCounter is a sampled value (shard queue depth).
	KindCounter
	// KindRun is a run-level stage span on the control track — the
	// same spans the obs tree shows, mirrored so the Perfetto view has
	// the stage slices above the shard tracks.
	KindRun
)

var kindNames = [...]string{"stage", "op", "instant", "counter", "run"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalJSON renders the kind as its name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON accepts the names MarshalJSON emits.
func (k *Kind) UnmarshalJSON(b []byte) error {
	s := string(b)
	for i, n := range kindNames {
		if s == `"`+n+`"` {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown op kind %s", s)
}

// ControlShard marks ops that belong to no worker shard: run-level
// stage spans and anything recorded outside the sharded executor. The
// tracer maps them onto an extra buffer and exports them as the "run"
// track.
const ControlShard = -1

// Op is one completed operation. Times are nanoseconds since the
// tracer started, so ops from every shard share one clock.
type Op struct {
	Shard   int32  `json:"shard"`
	Kind    Kind   `json:"kind"`
	Stage   string `json:"stage"`
	Name    string `json:"name"`
	BotID   int32  `json:"bot_id,omitempty"`
	Bot     string `json:"bot,omitempty"`
	Detail  string `json:"detail,omitempty"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns,omitempty"`
	Value   int64  `json:"value,omitempty"`
}

// EndNS is the op's end offset (start for instants and counters).
func (o Op) EndNS() int64 { return o.StartNS + o.DurNS }

// shardBuf is one shard's append-only op buffer. The pad keeps hot
// shard buffers off each other's cache lines.
type shardBuf struct {
	mu  sync.Mutex
	ops []Op
	_   [64]byte
}

// Tracer collects ops into per-shard buffers. All methods are safe for
// concurrent use and safe on a nil receiver (recording nothing), so
// instrumented code never checks whether tracing is enabled.
type Tracer struct {
	runID string
	level Level
	start time.Time

	// bufs has one entry per worker shard plus one control buffer at
	// the end for ControlShard ops.
	bufs []shardBuf

	// now is the clock, overridable by tests for deterministic ops.
	now func() time.Time
}

// New starts a tracer with the given number of worker shards (clamped
// to at least 1). runID is the same correlation identifier the journal
// stamps on every event.
func New(runID string, shards int, level Level) *Tracer {
	if shards < 1 {
		shards = 1
	}
	return &Tracer{
		runID: runID,
		level: level,
		start: time.Now(),
		bufs:  make([]shardBuf, shards+1),
		now:   time.Now,
	}
}

// RunID returns the run correlation identifier.
func (t *Tracer) RunID() string {
	if t == nil {
		return ""
	}
	return t.runID
}

// Level returns the configured recording level (LevelOff when nil).
func (t *Tracer) Level() Level {
	if t == nil {
		return LevelOff
	}
	return t.level
}

// Shards returns the worker-shard count (0 when nil).
func (t *Tracer) Shards() int {
	if t == nil {
		return 0
	}
	return len(t.bufs) - 1
}

// sinceNS is the op clock: nanoseconds since the tracer started.
func (t *Tracer) sinceNS() int64 { return t.now().Sub(t.start).Nanoseconds() }

// bufFor maps a shard (possibly ControlShard, possibly a hash input
// for a bot op recorded outside any worker) onto a buffer index.
func (t *Tracer) bufFor(shard int32, botID int32) *shardBuf {
	n := len(t.bufs) - 1
	switch {
	case shard >= 0 && int(shard) < n:
		return &t.bufs[shard]
	case shard == ControlShard && botID != 0:
		// No worker identity: spread bots across the buffers by ID so
		// collection still shards.
		idx := int(botID) % n
		if idx < 0 {
			idx = -idx
		}
		return &t.bufs[idx]
	default:
		return &t.bufs[n]
	}
}

// shardOf mirrors bufFor for the Op.Shard field actually recorded, so
// exports and the profile see the buffer the op landed in.
func (t *Tracer) shardOf(shard int32, botID int32) int32 {
	n := len(t.bufs) - 1
	switch {
	case shard >= 0 && int(shard) < n:
		return shard
	case shard == ControlShard && botID != 0:
		idx := int(botID) % n
		if idx < 0 {
			idx = -idx
		}
		return int32(idx)
	default:
		return ControlShard
	}
}

// record appends one finished op to its shard buffer.
func (t *Tracer) record(op Op) {
	buf := t.bufFor(op.Shard, op.BotID)
	op.Shard = t.shardOf(op.Shard, op.BotID)
	buf.mu.Lock()
	buf.ops = append(buf.ops, op)
	buf.mu.Unlock()
}

// Instant records a point event on a shard track (level >= bots).
func (t *Tracer) Instant(shard int, stage, name, detail string, value int64) {
	if t == nil || t.level < LevelBots {
		return
	}
	t.record(Op{
		Shard: int32(shard), Kind: KindInstant, Stage: stage, Name: name,
		Detail: detail, StartNS: t.sinceNS(), Value: value,
	})
}

// Sample records a counter value on a shard track (level >= bots).
func (t *Tracer) Sample(shard int, stage, name string, value int64) {
	if t == nil || t.level < LevelBots {
		return
	}
	t.record(Op{
		Shard: int32(shard), Kind: KindCounter, Stage: stage, Name: name,
		StartNS: t.sinceNS(), Value: value,
	})
}

// StartRunSpan opens a run-level stage span on the control track and
// returns its closer.
func (t *Tracer) StartRunSpan(stage string) func() {
	if t == nil || t.level < LevelBots {
		return noop
	}
	start := t.sinceNS()
	return func() {
		t.record(Op{
			Shard: ControlShard, Kind: KindRun, Stage: stage, Name: stage,
			StartNS: start, DurNS: t.sinceNS() - start,
		})
	}
}

// Len returns the total number of recorded ops.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.bufs {
		t.bufs[i].mu.Lock()
		n += len(t.bufs[i].ops)
		t.bufs[i].mu.Unlock()
	}
	return n
}

// Ops snapshots every shard buffer, merged and sorted by start time
// (ties broken by shard) so consumers see one coherent timeline.
func (t *Tracer) Ops() []Op {
	if t == nil {
		return nil
	}
	out := make([]Op, 0, t.Len())
	for i := range t.bufs {
		t.bufs[i].mu.Lock()
		out = append(out, t.bufs[i].ops...)
		t.bufs[i].mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNS != out[j].StartNS {
			return out[i].StartNS < out[j].StartNS
		}
		return out[i].Shard < out[j].Shard
	})
	return out
}

// noop is the shared closer for disabled spans, so gated StartX calls
// allocate nothing.
func noop() {}
