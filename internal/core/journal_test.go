package core

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/report"
)

// TestRunAllEmitsCorrelatedJournal is the issue's acceptance check: one
// full pipeline run must leave a journal with at least one correlated
// event per stage — crawl, traceability, code analysis, honeypot — all
// stamped with the run's ID, and the journal must replay into a per-bot
// timeline.
func TestRunAllEmitsCorrelatedJournal(t *testing.T) {
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	j := journal.New(&buf, journal.Options{Obs: reg})
	a, err := NewAuditor(Options{
		Seed:    23,
		NumBots: 80,
		Honeypot: HoneypotOptions{
			Sample: 5,
			Settle: 200 * time.Millisecond,
		},
		Obs:     reg,
		Journal: j,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	res, err := a.RunAllContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.RunID == "" {
		t.Fatal("no run ID minted")
	}
	if err := j.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}

	events, skipped, err := journal.Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if skipped != 0 {
		t.Errorf("journal has %d undecodable lines", skipped)
	}
	if len(events) == 0 {
		t.Fatal("journal is empty")
	}

	// One correlated event per stage. The map value records whether that
	// kind must also carry bot correlation.
	perStage := map[journal.Kind]bool{
		journal.KindPageFetched:       false, // crawl
		journal.KindBotDiscovered:     true,  // crawl
		journal.KindPolicyAudited:     true,  // traceability
		journal.KindCodeFlag:          true,  // code analysis
		journal.KindExperimentStarted: true,  // honeypot
		journal.KindExperimentSettled: true,  // honeypot
		journal.KindStageStarted:      false,
		journal.KindStageCompleted:    false,
	}
	sum := journal.Summarize(events)
	for kind, wantBot := range perStage {
		matching := journal.Filter(events, journal.Query{Kind: kind})
		if len(matching) == 0 {
			t.Errorf("no %s events in journal", kind)
			continue
		}
		for _, e := range matching {
			if e.RunID != res.RunID {
				t.Errorf("%s event run ID = %q, want %q", kind, e.RunID, res.RunID)
				break
			}
		}
		if wantBot && matching[0].BotID == 0 {
			t.Errorf("%s events carry no bot correlation", kind)
		}
	}
	if len(sum.Runs) != 1 || sum.Runs[0] != res.RunID {
		t.Errorf("summary runs = %v, want exactly %q", sum.Runs, res.RunID)
	}
	if sum.Bots == 0 {
		t.Error("summary correlates no bots")
	}
	if sum.Experiments == 0 {
		t.Error("summary correlates no experiments")
	}

	// The stage brackets cover every pipeline stage.
	stages := map[string]bool{}
	for _, e := range journal.Filter(events, journal.Query{Kind: journal.KindStageCompleted}) {
		if s, ok := e.Fields["stage"].(string); ok {
			stages[s] = true
		}
	}
	for _, want := range []string{"collect", "traceability", "codeanalysis", "honeypot", "vetting"} {
		if !stages[want] {
			t.Errorf("no stage_completed event for %q", want)
		}
	}

	// The journal replays into a per-bot timeline naming real bots.
	var timeline bytes.Buffer
	report.JournalTimeline(&timeline, events)
	out := timeline.String()
	if !strings.Contains(out, "Journal timeline:") {
		t.Fatalf("timeline did not render:\n%s", out)
	}
	settled := journal.Filter(events, journal.Query{Kind: journal.KindExperimentSettled})
	if len(settled) > 0 && !strings.Contains(out, settled[0].Bot) {
		t.Errorf("timeline does not mention experimented bot %q", settled[0].Bot)
	}
}

// TestAuditorOperationalSurface verifies the listing server answers the
// liveness/readiness probes and exposes pprof next to /metrics.
func TestAuditorOperationalSurface(t *testing.T) {
	a := newSmallAuditor(t, 10)
	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/debug/pprof/heap"} {
		resp, err := http.Get(a.ListingURL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Errorf("GET %s returned an empty body", path)
		}
	}
}
