// Tests for the per-bot tracing layer: span coverage per stage, export
// well-formedness, and the profile artifact.
package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/obs"
	bottrace "repro/internal/obs/trace"
)

func tracedOpts(shards int, level bottrace.Level) Options {
	return Options{
		Seed:    11,
		NumBots: 60,
		Honeypot: HoneypotOptions{
			Sample: 6,
			Settle: 300 * time.Millisecond,
		},
		Exec:  ExecOptions{Shards: shards},
		Trace: TraceOptions{Level: level},
		Obs:   obs.NewRegistry(),
	}
}

func TestShardedRunRecordsBotSpans(t *testing.T) {
	a, err := NewAuditor(tracedOpts(4, bottrace.LevelFull))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	res := runAll(t, a)

	tr := res.BotTrace
	if tr == nil {
		t.Fatal("traced run returned no BotTrace")
	}
	if tr.RunID() != res.RunID {
		t.Errorf("tracer run ID %q != results run ID %q", tr.RunID(), res.RunID)
	}

	ops := tr.Ops()
	stageBots := map[string]map[int32]bool{}
	subOps := map[string]int{}
	runSpans := map[string]bool{}
	for _, op := range ops {
		switch op.Kind {
		case bottrace.KindStage:
			if stageBots[op.Stage] == nil {
				stageBots[op.Stage] = map[int32]bool{}
			}
			stageBots[op.Stage][op.BotID] = true
			if op.Shard < 0 || int(op.Shard) >= tr.Shards() {
				t.Fatalf("bot span off any worker shard: %+v", op)
			}
		case bottrace.KindOp:
			subOps[op.Name]++
		case bottrace.KindRun:
			runSpans[op.Stage] = true
		}
	}
	// Every listed bot gets a collect span; every perms-valid record a
	// traceability span; every sampled bot a honeypot span.
	if got := len(stageBots["collect"]); got != len(a.Ecosystem().Bots) {
		t.Errorf("collect spans cover %d bots, want %d", got, len(a.Ecosystem().Bots))
	}
	valid := 0
	for _, r := range res.Records {
		if r.PermsValid {
			valid++
		}
	}
	if got := len(stageBots["traceability"]); got != valid {
		t.Errorf("traceability spans cover %d bots, want %d perms-valid", got, valid)
	}
	if got := len(stageBots["honeypot"]); got != 6 {
		t.Errorf("honeypot spans cover %d bots, want the sample of 6", got)
	}
	for _, stage := range []string{"collect", "traceability", "codeanalysis", "honeypot", "vetting"} {
		if !runSpans[stage] {
			t.Errorf("run-level span missing for stage %s", stage)
		}
	}
	// Full level records the instrumented sub-operations.
	for _, name := range []string{"page_fetch", "invite_redirect", "policy_audit", "honeypot_settle"} {
		if subOps[name] == 0 {
			t.Errorf("no %s sub-operations recorded", name)
		}
	}

	// Exports stay well-formed on a real run.
	var chrome bytes.Buffer
	if err := tr.WriteChromeTrace(&chrome); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if err := bottrace.ValidateChromeTrace(chrome.Bytes()); err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	}
	var jsonl bytes.Buffer
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	h, decoded, skipped, err := bottrace.DecodeJSONL(&jsonl)
	if err != nil || skipped != 0 || len(decoded) != len(ops) {
		t.Fatalf("span log round-trip: %d/%d ops, skipped %d, err %v", len(decoded), len(ops), skipped, err)
	}
	if h.RunID != res.RunID {
		t.Errorf("span log header run ID %q, want %q", h.RunID, res.RunID)
	}

	// The profile names every traced bot and a timeline per shard.
	p := tr.BuildProfile()
	if len(p.Bots) == 0 || len(p.ShardTL) != 4 {
		t.Fatalf("profile: %d bots, %d shard timelines (want 4)", len(p.Bots), len(p.ShardTL))
	}
	var pbuf bytes.Buffer
	if err := bottrace.WriteProfile(&pbuf, p); err != nil {
		t.Fatal(err)
	}
	got, err := bottrace.DecodeProfile(&pbuf)
	if err != nil || len(got.Bots) != len(p.Bots) {
		t.Fatalf("profile round-trip: %d bots, err %v", len(got.Bots), err)
	}
}

// TestSequentialRunTracesAtBotLevel: a one-shard run (one worker, bots
// in listing order) traced at level bots records stage spans only.
func TestSequentialRunTracesAtBotLevel(t *testing.T) {
	a, err := NewAuditor(tracedOpts(1, bottrace.LevelBots))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	res := runAll(t, a)

	tr := res.BotTrace
	if tr == nil {
		t.Fatal("traced run returned no BotTrace")
	}
	stages, subops := 0, 0
	for _, op := range tr.Ops() {
		switch op.Kind {
		case bottrace.KindStage:
			stages++
		case bottrace.KindOp:
			subops++
		}
	}
	if stages == 0 {
		t.Fatal("one-shard run recorded no bot-stage spans")
	}
	if subops != 0 {
		t.Fatalf("level bots recorded %d sub-operations, want 0", subops)
	}
	var chrome bytes.Buffer
	if err := tr.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	if err := bottrace.ValidateChromeTrace(chrome.Bytes()); err != nil {
		t.Fatalf("one-shard chrome trace invalid: %v", err)
	}
}

func TestTracingOffRecordsNothing(t *testing.T) {
	a, err := NewAuditor(tracedOpts(2, bottrace.LevelOff))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	res := runAll(t, a)
	if res.BotTrace != nil {
		t.Fatal("tracing off still built a tracer")
	}
}
