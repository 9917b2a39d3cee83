package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/codeanalysis"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/scraper"
)

// parityStore opens a snapshot store whose AfterSave hook checks, at
// every save, that the file on disk is byte-identical to the reference
// encoder's output for the same snapshot. It returns the store and the
// count of saves checked.
func parityStore(t *testing.T) (*checkpoint.Store, *atomic.Int64) {
	t.Helper()
	st, err := checkpoint.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	saves := new(atomic.Int64)
	st.AfterSave = func(s *checkpoint.Snapshot) {
		n := saves.Add(1)
		got, err := os.ReadFile(st.Path(s.RunID))
		if err != nil {
			t.Errorf("save %d: %v", n, err)
			return
		}
		var want bytes.Buffer
		if err := checkpoint.Encode(&want, s); err != nil {
			t.Errorf("save %d: reference encode: %v", n, err)
			return
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("save %d: file (%d bytes) differs from checkpoint.Encode (%d bytes) at byte %d",
				n, len(got), want.Len(), firstDiff(got, want.Bytes()))
		}
	}
	return st, saves
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func parityOpts(st *checkpoint.Store, shards int) Options {
	return Options{
		Seed:    7,
		NumBots: 60,
		Honeypot: HoneypotOptions{
			Sample:      6,
			Concurrency: 4,
			Settle:      200 * time.Millisecond,
		},
		Exec:       ExecOptions{Shards: shards},
		Checkpoint: CheckpointOptions{Store: st, Every: 3},
		Obs:        obs.NewRegistry(),
	}
}

// runParity runs the pipeline once under opts and returns its error;
// prep, when set, sees the auditor before the run starts.
func runParity(ctx context.Context, t *testing.T, opts Options, prep func(*Auditor)) error {
	t.Helper()
	a, err := NewAuditor(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if prep != nil {
		prep(a)
	}
	_, err = a.RunAllContext(ctx)
	return err
}

// TestCheckpointFilesMatchReferenceEncoder: the incremental snapshot
// encoder must write, at every save, exactly the bytes Encode writes for
// the same snapshot — on both executors, across a resume (restored work
// is encoded from loaded data), and with every optional ledger field
// populated by faults.
func TestCheckpointFilesMatchReferenceEncoder(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{{"sequential", 0}, {"sharded", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			st, saves := parityStore(t)
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
			defer cancel()
			if err := runParity(ctx, t, parityOpts(st, tc.shards), nil); err != nil {
				t.Fatal(err)
			}
			if saves.Load() < 10 {
				t.Fatalf("only %d saves checked", saves.Load())
			}
		})
	}

	t.Run("resumed", func(t *testing.T) {
		st, saves := parityStore(t)
		check := st.AfterSave
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
		defer cancel()
		// Die right after the 4th save, mid-run, then resume: the
		// sharded executor settles bots through every stage, so the
		// restored snapshot already holds records and code links.
		ab := faults.NewAbort(4, cancel)
		st.AfterSave = func(s *checkpoint.Snapshot) { check(s); ab.Tick() }
		if err := runParity(ctx, t, parityOpts(st, 4), nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("first attempt returned %v, want the injected abort", err)
		}
		mid, err := st.Latest()
		if err != nil {
			t.Fatal(err)
		}
		if len(mid.Records) == 0 || len(mid.CodeLinks) == 0 || mid.Completed {
			t.Fatalf("abort left no mid-run snapshot (records=%d code_links=%d completed=%v)",
				len(mid.Records), len(mid.CodeLinks), mid.Completed)
		}
		before := saves.Load()
		st.AfterSave = check
		opts := parityOpts(st, 4)
		opts.Checkpoint.Resume = ResumeLatest
		ctx2, cancel2 := context.WithTimeout(context.Background(), 3*time.Minute)
		defer cancel2()
		if err := runParity(ctx2, t, opts, nil); err != nil {
			t.Fatal(err)
		}
		if saves.Load()-before < 5 {
			t.Fatalf("resumed run checked only %d saves", saves.Load()-before)
		}
	})

	t.Run("faults", func(t *testing.T) {
		prof, err := faults.Named("moderate")
		if err != nil {
			t.Fatal(err)
		}
		// One bot's detail page and the dead code link always 503, so
		// the collect quarantine and the abandoned-link ledger fill up
		// whatever the probabilistic faults do.
		prof.PerEndpoint = map[string]faults.Rates{
			"/bot/99": {ServerError: 1},
			"/gone/":  {ServerError: 1},
		}
		st, saves := parityStore(t)
		opts := parityOpts(st, 4)
		opts.NumBots = 120
		opts.Faults = FaultOptions{Injector: faults.New(prof, 5, faults.Options{})}
		opts.Exec.StageRetryBudget = 50
		// Breakers open only on an all-failure window and then stay
		// open, so the gateway circuit tripped below quarantines every
		// honeypot experiment while the HTTP circuits ride out the
		// profile's faults.
		opts.Breakers = BreakerOptions{Enabled: true, Config: retry.BreakerConfig{FailureRate: 1, OpenFor: time.Hour}}
		tripGateway := func(a *Auditor) {
			b := a.Breakers().For("gateway " + a.gw.Addr())
			for range 16 {
				b.Record(true)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
		defer cancel()
		if err := runParity(ctx, t, opts, tripGateway); err != nil {
			t.Fatal(err)
		}
		last, err := st.Latest()
		if err != nil {
			t.Fatal(err)
		}
		if len(last.CollectQuarantine) == 0 || len(last.CodeLinkErrs) == 0 ||
			len(last.HoneypotQuarantine) == 0 || len(last.BudgetLeft) == 0 {
			t.Fatalf("fault profile left a ledger field empty: collect_quarantine=%d code_link_errs=%d honeypot_quarantine=%d budget_left=%d",
				len(last.CollectQuarantine), len(last.CodeLinkErrs), len(last.HoneypotQuarantine), len(last.BudgetLeft))
		}
		if saves.Load() < 10 {
			t.Fatalf("only %d saves checked", saves.Load())
		}
	})
}

// TestResumedLinksNotSharedWithCheckpointer: on resume the code
// analyzer reads the restored links from many workers while the
// checkpointer keeps adding fresh links to its snapshot, so the two
// must not share a map.
func TestResumedLinksNotSharedWithCheckpointer(t *testing.T) {
	st, err := checkpoint.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap := &checkpoint.Snapshot{
		RunID:        "resume",
		CodeLinks:    map[string]*codeanalysis.RepoAnalysis{"/old/repo": {Link: "/old/repo"}},
		CodeLinkErrs: map[string]string{"/old/dead": "503"},
	}
	res := codeResume(snap)
	c := newCkptState(CheckpointOptions{Store: st, Every: 1000}, snap, obs.NewRegistry())
	c.noteLink("/new/repo", &codeanalysis.RepoAnalysis{Link: "/new/repo"}, "")
	c.noteLink("/new/dead", nil, "503")
	if len(res.Settled) != 1 || len(res.Failed) != 1 {
		t.Fatalf("noting fresh links changed the analyzer's resume view: settled=%v failed=%v", res.Settled, res.Failed)
	}
}

// TestCheckpointSaveCostIndependentOfSettled guards the encode-once
// contract: with 10,000 settled records already saved, a save after 25
// new records must allocate in proportion to those 25, not to the
// whole snapshot. The bound does not depend on how much is settled, so
// a regression to whole-snapshot re-encoding fails it.
func TestCheckpointSaveCostIndependentOfSettled(t *testing.T) {
	const settled, batch, rounds = 10000, 25, 9
	st, err := checkpoint.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := newCkptState(CheckpointOptions{Store: st, Every: batch},
		&checkpoint.Snapshot{RunID: "cost", Seed: 1, NumBots: settled + batch*rounds}, obs.NewRegistry())
	rec := func(id int) *scraper.Record {
		return &scraper.Record{
			ID:          id,
			Name:        "bot-name",
			Tags:        []string{"moderation", "music", "fun"},
			Description: "A general purpose bot with moderation, music and games for your server.",
			GuildCount:  1200 + id,
			Votes:       id % 97,
			Prefix:      "!",
			Commands:    []string{"help", "ban", "kick", "play", "skip"},
			Developers:  []string{"dev#0001"},
			GitHubURL:   "/dev/bot-name",
			PermsValid:  true,
			Perms:       8,
			PolicyText:  "We store your user ID and messages to provide the service.",
		}
	}
	outcomes := func(from, n int) []pendingOutcome {
		out := make([]pendingOutcome, n)
		for i := range out {
			out[i] = pendingOutcome{Stage: "collect", BotID: from + i, Rec: rec(from + i)}
		}
		return out
	}

	// Settle the first 10,000 records in one write.
	c.every = settled
	c.noteBatch(outcomes(0, settled))
	c.every = batch
	if got := c.cWrites.Value(); got != 1 {
		t.Fatalf("setup wrote %d snapshots, want 1", got)
	}

	// Each round settles 25 more records, which triggers one save. The
	// median round is the steady state: appends to the accumulating
	// slices grow their backing arrays on only a few rounds.
	perRound := make([]uint64, rounds)
	var ms runtime.MemStats
	for r := range perRound {
		next := outcomes(settled+r*batch, batch)
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		c.noteBatch(next)
		runtime.ReadMemStats(&ms)
		perRound[r] = ms.TotalAlloc - before
	}
	if got := c.cWrites.Value(); got != 1+rounds {
		t.Fatalf("wrote %d snapshots, want %d", got, 1+rounds)
	}
	sort.Slice(perRound, func(i, j int) bool { return perRound[i] < perRound[j] })
	median := perRound[rounds/2]

	one, err := json.Marshal(rec(0))
	if err != nil {
		t.Fatal(err)
	}
	// Four times the encoded size of the new records, plus a fixed
	// allowance for the file write and journal event; re-encoding the
	// 10,000 settled records alone would cost 400 times one batch.
	bound := uint64(4*batch*len(one) + 64<<10)
	if median > bound {
		t.Fatalf("a save after %d new records allocated %d bytes (median of %d rounds, all %v); want <= %d, independent of the %d records already settled",
			batch, median, rounds, perRound, bound, settled)
	}
}
