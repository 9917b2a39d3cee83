// Tests for the sharded work-stealing executor: graceful degradation
// under chaos, crash/resume convergence mid-shard, and the concurrent
// stage-timing report. golden_test.go pins its fault-free outputs.
package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/canary"
	"repro/internal/checkpoint"
	"repro/internal/faults"
	"repro/internal/honeypot"
	"repro/internal/obs"
	"repro/internal/obs/journal"
)

// comparableVerdict projects a honeypot verdict onto its deterministic
// fields: trigger timestamps, remote addresses, token IDs, and raw
// trigger multiplicities are run-specific (wall clock, ephemeral
// ports, random token minting, and how often a snooping bot re-hits a
// canary inside the watch window), so parity compares what was
// detected — the distinct trigger kinds per bot — not when, how many
// times, or through which token.
type comparableVerdict struct {
	ListingID          int
	Name               string
	GuildTag           string
	Triggered          bool
	TriggerKinds       []canary.Kind
	TriggeredKinds     []canary.Kind
	BotMessages        []string
	Responded          bool
	WebhookPersistence bool
}

func normalizeVerdicts(vs []*honeypot.Verdict) []comparableVerdict {
	out := make([]comparableVerdict, 0, len(vs))
	for _, v := range vs {
		cv := comparableVerdict{
			ListingID:          v.Subject.ListingID,
			Name:               v.Subject.Name,
			GuildTag:           v.GuildTag,
			Triggered:          v.Triggered,
			TriggeredKinds:     append([]canary.Kind(nil), v.TriggeredKinds...),
			BotMessages:        v.BotMessages,
			Responded:          v.Responded,
			WebhookPersistence: v.WebhookPersistence,
		}
		kinds := map[canary.Kind]bool{}
		for _, tr := range v.Triggers {
			kinds[tr.Kind] = true
		}
		for k := range kinds {
			cv.TriggerKinds = append(cv.TriggerKinds, k)
		}
		sort.Slice(cv.TriggerKinds, func(i, j int) bool { return cv.TriggerKinds[i] < cv.TriggerKinds[j] })
		// TriggeredKinds preserves first-arrival order, which legitimately
		// varies with scheduling; compare it as a set too.
		sort.Slice(cv.TriggeredKinds, func(i, j int) bool { return cv.TriggeredKinds[i] < cv.TriggeredKinds[j] })
		out = append(out, cv)
	}
	return out
}

// TestShardedStageWorkerBounds pins the per-stage concurrency knobs:
// explicit StageWorkers limits are what the gates enforce.
func TestShardedStageWorkerBounds(t *testing.T) {
	a, err := NewAuditor(Options{
		Seed:    13,
		NumBots: 80,
		Honeypot: HoneypotOptions{
			Sample: 8,
			Settle: 300 * time.Millisecond,
		},
		Exec: ExecOptions{
			Shards:       6,
			StageWorkers: StageWorkers{Collect: 2, Code: 3, Honeypot: 1},
		},
		Obs: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	res := runAll(t, a)
	want := map[string]int{"collect": 2, "traceability": 6, "codeanalysis": 3, "honeypot": 1}
	for _, g := range res.Scale.Stages {
		if g.Limit != want[g.Stage] {
			t.Errorf("stage %s gate limit = %d, want %d", g.Stage, g.Limit, want[g.Stage])
		}
		if g.MaxInflight > g.Limit {
			t.Errorf("stage %s peaked at %d in-flight, over its limit %d", g.Stage, g.MaxInflight, g.Limit)
		}
	}
}

// TestShardedChaosDeterministic: under the moderate fault profile the
// sharded executor degrades instead of failing, quarantines only on
// infrastructure errors, and — because fault decisions are a pure
// function of (seed, endpoint, attempt) and every bot is carried by
// exactly one worker — replays the identical quarantine ledger run
// after run, matching a one-shard (sequential) run's ledger too.
func TestShardedChaosDeterministic(t *testing.T) {
	run := func(shards int) *Results {
		prof, err := faults.Named("moderate")
		if err != nil {
			t.Fatal(err)
		}
		inj := faults.New(prof, 21, faults.Options{})
		a, err := NewAuditor(Options{
			Seed:    7,
			NumBots: 120,
			Honeypot: HoneypotOptions{
				Sample: 12,
				Settle: 300 * time.Millisecond,
			},
			Exec:   ExecOptions{Shards: shards},
			Faults: FaultOptions{Injector: inj},
			Obs:    obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		return runAll(t, a)
	}
	keys := func(r *Results) []string {
		out := []string{}
		for _, q := range r.Quarantined {
			out = append(out, quarantineKey(q))
		}
		sort.Strings(out)
		return out
	}

	first := run(4)
	for _, q := range first.Quarantined {
		if !isInfra(q.Err) {
			t.Errorf("quarantined %s/bot %d on a non-infrastructure error: %v", q.Stage, q.BotID, q.Err)
		}
	}
	second := run(4)
	if got, want := keys(second), keys(first); !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded chaos ledger not deterministic:\n%v\nvs\n%v", got, want)
	}
	seq := run(1)
	if got, want := keys(first), keys(seq); !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded chaos ledger diverged from sequential:\n%v\nvs\n%v", got, want)
	}
	if !reflect.DeepEqual(first.Table2, seq.Table2) {
		t.Fatal("chaos Table2 diverged from sequential")
	}
}

// TestShardedKillResumeNoReexecution is the resume-mid-shard gate: kill
// a sharded run at successive checkpoint writes, resume each time, and
// require convergence to an uninterrupted one-shard baseline with
// zero bots lost and zero settled work re-executed.
func TestShardedKillResumeNoReexecution(t *testing.T) {
	const (
		seed   = 7
		bots   = 60
		sample = 6
	)
	newOpts := func(shards int) Options {
		return Options{
			Seed:    seed,
			NumBots: bots,
			Honeypot: HoneypotOptions{
				Sample: sample,
				Settle: 300 * time.Millisecond,
			},
			Exec: ExecOptions{Shards: shards},
			Obs:  obs.NewRegistry(),
		}
	}

	base := func() *Results {
		a, err := NewAuditor(newOpts(1))
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		return runAll(t, a)
	}()

	st, err := checkpoint.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	kills := []int{1, 2, 3}
	var final *Results
	firstRunID := ""
	resumeFrom := ""
	for attempt := 0; ; attempt++ {
		if attempt > len(kills)+3 {
			t.Fatalf("sharded pipeline did not converge after %d attempts", attempt)
		}
		opts := newOpts(4)
		opts.Checkpoint = CheckpointOptions{Store: st, Every: 3, Resume: resumeFrom}
		var buf bytes.Buffer
		jnl := journal.New(&buf, journal.Options{Obs: opts.Obs})
		opts.Journal = jnl

		var snap *checkpoint.Snapshot
		if resumeFrom != "" {
			if snap, err = st.Latest(); err != nil {
				t.Fatal(err)
			}
		}

		a, err := NewAuditor(opts)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
		var ab *faults.AbortInjector
		if attempt < len(kills) {
			ab = faults.NewAbort(kills[attempt], cancel)
		}
		st.AfterSave = func(*checkpoint.Snapshot) { ab.Tick() }
		res, runErr := a.RunAllContext(ctx)
		st.AfterSave = nil
		cancel()
		a.Close()
		if err := jnl.Close(); err != nil {
			t.Fatal(err)
		}
		events, _, err := journal.Decode(&buf)
		if err != nil {
			t.Fatalf("attempt %d journal: %v", attempt, err)
		}

		if snap != nil {
			verifyNoReexecution(t, attempt, snap, events)
		}
		if firstRunID == "" {
			got, err := st.Latest()
			if err != nil {
				t.Fatalf("attempt %d wrote no snapshot: %v", attempt, err)
			}
			firstRunID = got.RunID
		}

		if runErr == nil {
			final = res
			break
		}
		if !errors.Is(runErr, context.Canceled) {
			t.Fatalf("attempt %d died with %v, want the injected abort (context.Canceled)", attempt, runErr)
		}
		if !ab.Fired() {
			t.Fatalf("attempt %d aborted without the injector firing", attempt)
		}
		resumeFrom = ResumeLatest
	}

	if final.RunID != firstRunID {
		t.Fatalf("resumed run minted a new run ID %s, want the original %s", final.RunID, firstRunID)
	}
	if !reflect.DeepEqual(final.Records, base.Records) {
		t.Fatal("resumed sharded records diverged from the sequential baseline")
	}
	if !reflect.DeepEqual(final.Table2, base.Table2) {
		t.Fatalf("resumed Table2 diverged: %+v vs %+v", final.Table2, base.Table2)
	}
	if !reflect.DeepEqual(final.Code, base.Code) {
		t.Fatal("resumed code-analysis result diverged from baseline")
	}
	if final.Honeypot.Tested != base.Honeypot.Tested {
		t.Fatalf("resumed Tested = %d, baseline %d (bots lost or doubled)", final.Honeypot.Tested, base.Honeypot.Tested)
	}
	if got, want := triggeredNames(final), triggeredNames(base); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed triggered set %v, baseline %v", got, want)
	}
	if len(final.Quarantined) != 0 {
		t.Fatalf("zero-fault resumed run quarantined %d bots", len(final.Quarantined))
	}
	last, err := st.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if !last.Completed {
		t.Fatal("final snapshot not marked Completed")
	}
	if len(last.Records) != len(base.Records) {
		t.Fatalf("final snapshot has %d records, baseline %d", len(last.Records), len(base.Records))
	}
}

// TestShardedConcurrentTimingsReport: interleaved stages render as
// summed gate busy time with the explicit concurrent marker, plus the
// scale accounting block, instead of a meaningless wall-clock sum.
func TestShardedConcurrentTimingsReport(t *testing.T) {
	a, err := NewAuditor(Options{
		Seed:    11,
		NumBots: 60,
		Honeypot: HoneypotOptions{
			Sample: 6,
			Settle: 300 * time.Millisecond,
		},
		Exec: ExecOptions{Shards: 2},
		Obs:  obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	res := runAll(t, a)

	var buf bytes.Buffer
	res.Report(&buf)
	out := buf.String()
	if !strings.Contains(out, "ms*") {
		t.Error("report lacks the per-stage concurrent marker (ms*)")
	}
	if !strings.Contains(out, "* concurrent stage") {
		t.Error("report lacks the concurrent-stage footnote")
	}
	if !strings.Contains(out, "Sharded executor:") {
		t.Error("report lacks the sharded-executor scale block")
	}
	for _, stage := range []string{"collect", "traceability", "codeanalysis", "honeypot"} {
		if !strings.Contains(out, "stage "+stage) {
			t.Errorf("scale block lacks stage %s", stage)
		}
	}

	// The timing table's rows are the four gated analysis stages; the
	// ungated vetting stage is not among them.
	var rows []string
	for _, g := range res.Scale.Stages {
		rows = append(rows, g.Stage)
	}
	if want := []string{"collect", "traceability", "codeanalysis", "honeypot"}; !reflect.DeepEqual(rows, want) {
		t.Errorf("timed stages = %v, want %v", rows, want)
	}
}
