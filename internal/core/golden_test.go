package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/report"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from a default-executor run")

// goldenOpts is the fixed-seed population the golden files freeze.
func goldenOpts(shards int) Options {
	return Options{
		Seed:     2022,
		NumBots:  200,
		Honeypot: HoneypotOptions{Sample: 16, Settle: 300 * time.Millisecond},
		Exec:     ExecOptions{Shards: shards},
		Obs:      obs.NewRegistry(),
	}
}

// goldenFiles renders a run's deterministic outputs: the two dataset
// exports, the normalized honeypot verdicts, and every report section
// that depends only on the seed.
func goldenFiles(t *testing.T, res *Results) map[string][]byte {
	t.Helper()
	var recs, code, verdicts, rep bytes.Buffer
	if err := dataset.WriteRecords(&recs, res.Records); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCodeAnalyses(&code, res.Analyses); err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(&verdicts)
	enc.SetIndent("", "  ")
	if err := enc.Encode(normalizeVerdicts(res.Honeypot.Verdicts)); err != nil {
		t.Fatal(err)
	}
	report.ScrapeYield(&rep, res.Records)
	fmt.Fprintln(&rep)
	report.Figure3(&rep, res.PermDist)
	fmt.Fprintln(&rep)
	report.Table1(&rep, res.BotsPerDeveloper)
	fmt.Fprintln(&rep)
	report.Table2(&rep, res.Table2)
	fmt.Fprintln(&rep)
	report.DataTypes(&rep, res.DataTypes)
	fmt.Fprintln(&rep)
	report.CodeTaxonomy(&rep, res.Code)
	fmt.Fprintln(&rep)
	report.Table3(&rep, res.Code)
	fmt.Fprintln(&rep)
	report.Vetting(&rep, res.VettingSummary)
	return map[string][]byte{
		"records.jsonl": recs.Bytes(),
		"code.jsonl":    code.Bytes(),
		"verdicts.json": verdicts.Bytes(),
		"report.txt":    rep.Bytes(),
	}
}

func goldenRun(t *testing.T, shards int) *Results {
	t.Helper()
	a, err := NewAuditor(goldenOpts(shards))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	res := runAll(t, a)
	if len(res.Quarantined) != 0 {
		t.Fatalf("fault-free run quarantined %d bot(s)", len(res.Quarantined))
	}
	return res
}

// checkScale checks the executor's accounting of a fault-free run:
// every listed bot scheduled once, and no gate over its limit.
func checkScale(t *testing.T, res *Results, shards int) {
	t.Helper()
	s := res.Scale
	if s.Shards != shards || s.Workers != shards {
		t.Fatalf("Scale reports %d shards × %d workers, want %d × %d", s.Shards, s.Workers, shards, shards)
	}
	if s.Items != len(res.Records) {
		t.Fatalf("scheduled %d items, want one per listed bot (%d)", s.Items, len(res.Records))
	}
	var executed int64
	for _, n := range s.ExecutedPerShard {
		executed += n
	}
	if executed != int64(s.Items) {
		t.Fatalf("shards executed %d items, want %d (none lost, none doubled)", executed, s.Items)
	}
	if len(s.Stages) != 4 {
		t.Fatalf("Scale has %d stage gates, want 4", len(s.Stages))
	}
	for _, g := range s.Stages {
		if g.MaxInflight > g.Limit {
			t.Fatalf("stage %s peaked at %d in-flight, over its limit %d", g.Stage, g.MaxInflight, g.Limit)
		}
	}
	if s.BotsPerSec <= 0 {
		t.Fatalf("BotsPerSec = %v, want > 0", s.BotsPerSec)
	}
}

// TestOutputsMatchGolden pins the pipeline's exports and deterministic
// report sections on seed 2022 byte for byte, at one shard and at four
// (run side by side: the one-shard run is bound by declared waits). The
// files were frozen from the stage-at-a-time executor this one replaced.
// Regenerate with: go test ./internal/core -run TestOutputsMatchGolden -update
func TestOutputsMatchGolden(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, b := range goldenFiles(t, goldenRun(t, 0)) {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Parallel()
			res := goldenRun(t, shards)
			checkScale(t, res, shards)
			for name, got := range goldenFiles(t, res) {
				want, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s differs from golden at byte %d (got %d bytes, want %d)",
						name, firstDiff(got, want), len(got), len(want))
				}
			}
		})
	}
}
