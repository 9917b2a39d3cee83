package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/codeanalysis"
	"repro/internal/core"
	"repro/internal/honeypot"
	"repro/internal/listing"
	"repro/internal/report"
	"repro/internal/scraper"
	"repro/internal/synth"
	"repro/internal/traceability"
)

// expectedReason maps a bot's generated invite health to the invalid
// reason the collect stage must record.
func expectedReason(h listing.InviteHealth) scraper.InvalidReason {
	switch h {
	case listing.InviteBroken:
		return scraper.InvalidBrokenLink
	case listing.InviteRemoved:
		return scraper.InvalidRemoved
	case listing.InviteSlow:
		return scraper.InvalidTimeout
	}
	return scraper.InvalidNone
}

// expectedOutcome derives a GitHub link's §4.2 class from the generated
// code host: "/owner/repo" is a repository when hosted, "/owner" a
// profile with or without repositories, anything else dead.
func expectedOutcome(r *auditRun, link string) codeanalysis.LinkOutcome {
	parts := strings.Split(strings.Trim(link, "/"), "/")
	switch len(parts) {
	case 2:
		if _, ok := r.eco.Host.Repo(parts[0] + "/" + parts[1]); ok {
			return codeanalysis.OutcomeValidRepo
		}
	case 1:
		if repos, ok := r.eco.Host.Profile(parts[0]); ok {
			if len(repos) > 0 {
				return codeanalysis.OutcomeProfile
			}
			return codeanalysis.OutcomeNoRepos
		}
	}
	return codeanalysis.OutcomeDead
}

// checkAudit is the audit correctness gate. It returns the number of
// failed items (quarantined bots), every violation found, and a digest
// of the seed-deterministic outputs.
func checkAudit(spec auditSpec, r *auditRun) (failed int64, problems []string, digest string) {
	bad := func(format string, args ...any) {
		if len(problems) < 20 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	res := r.res
	if res == nil || res.Scale == nil {
		return 0, []string{"no results or no executor accounting"}, ""
	}
	if r.ledgerErr != "" {
		bad("journal ledger does not verify: %s", r.ledgerErr)
	}
	if spec.durable && !r.ledgerOK {
		bad("journal ledger was not verified")
	}

	// Every listed bot ends as exactly one record or one quarantine.
	byID := make(map[int]*scraper.Record, len(res.Records))
	for _, rec := range res.Records {
		if _, dup := byID[rec.ID]; dup {
			bad("bot %d has two records", rec.ID)
		}
		byID[rec.ID] = rec
	}
	quarantined := make(map[string]map[int]bool)
	for _, q := range res.Quarantined {
		if quarantined[q.Stage] == nil {
			quarantined[q.Stage] = make(map[int]bool)
		}
		quarantined[q.Stage][q.BotID] = true
		failed++
	}
	for _, b := range r.eco.Bots {
		_, hasRec := byID[b.ID]
		if hasRec == quarantined["collect"][b.ID] {
			bad("bot %d: record=%v quarantined=%v, want exactly one", b.ID, hasRec, !hasRec)
		}
	}
	if len(byID)+len(quarantined["collect"]) != len(r.eco.Bots) {
		bad("%d records + %d quarantines for %d listed bots", len(byID), len(quarantined["collect"]), len(r.eco.Bots))
	}

	// Per-record fields and the Table 2 / code-analysis ground truth.
	var want report.Table2Data
	var an traceability.Analyzer
	wantCode := codeanalysis.NewResult()
	for _, b := range r.eco.Bots {
		rec := byID[b.ID]
		if rec == nil {
			continue
		}
		if rec.InvalidReason != expectedReason(b.InviteHealth) {
			bad("bot %d: invalid reason %q, want %q", b.ID, rec.InvalidReason, expectedReason(b.InviteHealth))
		}
		valid := b.InviteHealth == listing.InviteOK
		if rec.PermsValid != valid || (valid && rec.Perms != b.Perms) {
			bad("bot %d: perms valid=%v %v, want valid=%v %v", b.ID, rec.PermsValid, rec.Perms, valid, b.Perms)
		}
		if rec.HasWebsite != b.HasWebsite || rec.GitHubURL != b.GitHubURL {
			bad("bot %d: website=%v github=%q, want %v %q", b.ID, rec.HasWebsite, rec.GitHubURL, b.HasWebsite, b.GitHubURL)
		}
		policy := ""
		if b.HasWebsite && b.HasPolicyLink && !b.PolicyDead {
			policy = b.PolicyText
		}
		if b.HasWebsite && (rec.PolicyLinkFound != b.HasPolicyLink || rec.PolicyLinkDead != (b.HasPolicyLink && b.PolicyDead)) {
			bad("bot %d: policy link found=%v dead=%v, want %v %v", b.ID, rec.PolicyLinkFound, rec.PolicyLinkDead, b.HasPolicyLink, b.PolicyDead)
		}
		if !valid {
			continue
		}
		want.ActiveBots++
		if b.HasWebsite {
			want.WebsiteLink++
			if b.HasPolicyLink {
				want.PolicyLink++
				if !b.PolicyDead {
					want.PolicyValid++
				}
			}
		}
		want.Traceability.Add(an.AnalyzePolicy(policy, b.Perms))
		wantCode.NoteBot(b.GitHubURL != "")
		if b.GitHubURL != "" && !quarantined["codeanalysis"][b.ID] {
			wantCode.Outcomes[expectedOutcome(r, b.GitHubURL)]++
		}
	}
	if res.Table2 != want {
		bad("Table 2 %+v, ground truth %+v", res.Table2, want)
	}
	if res.Code == nil {
		bad("no code-analysis result")
	} else {
		if res.Code.ActiveBots != wantCode.ActiveBots || res.Code.WithLink != wantCode.WithLink {
			bad("code analysis saw %d active bots / %d links, ground truth %d / %d",
				res.Code.ActiveBots, res.Code.WithLink, wantCode.ActiveBots, wantCode.WithLink)
		}
		for _, o := range []codeanalysis.LinkOutcome{codeanalysis.OutcomeValidRepo, codeanalysis.OutcomeProfile, codeanalysis.OutcomeNoRepos, codeanalysis.OutcomeDead} {
			if res.Code.Outcomes[o] != wantCode.Outcomes[o] {
				bad("code outcome %s: %d, ground truth %d", o, res.Code.Outcomes[o], wantCode.Outcomes[o])
			}
		}
	}

	// The honeypot verdicts every sampled bot and flags exactly the
	// sampled bots synth made malicious.
	sample := honeypot.SelectMostVoted(r.eco.Bots, spec.sampleSize())
	if res.Honeypot == nil {
		bad("no honeypot result")
	} else {
		verdicts := make(map[int]*honeypot.Verdict)
		for _, v := range res.Honeypot.Verdicts {
			verdicts[v.Subject.ListingID] = v
		}
		for _, b := range sample {
			v := verdicts[b.ID]
			switch {
			case quarantined["honeypot"][b.ID]:
			case v == nil:
				bad("sampled bot %d has neither a verdict nor a quarantine", b.ID)
			case v.Triggered != (b.ID == r.eco.MaliciousID):
				bad("sampled bot %d: triggered=%v, malicious=%v", b.ID, v.Triggered, b.ID == r.eco.MaliciousID)
			case v.Responded && r.eco.Behaviors[b.ID] == synth.BehaviorIdle:
				bad("sampled bot %d is idle but was recorded as responding", b.ID)
			}
		}
		if len(res.Honeypot.Verdicts)+len(res.Honeypot.Quarantined) != len(sample) {
			bad("%d verdicts + %d quarantines for a sample of %d", len(res.Honeypot.Verdicts), len(res.Honeypot.Quarantined), len(sample))
		}
	}
	if want := len(r.eco.Bots); res.Scale.Items != want {
		// Every sampled bot is listed, so the items are the listing.
		bad("executor scheduled %d items, want %d", res.Scale.Items, want)
	}
	return failed, problems, auditDigest(res)
}

// auditDigest hashes the seed-deterministic outputs: every record, the
// Table 2 counts, the code-analysis outcomes and every verdict.
func auditDigest(res *core.Results) string {
	h := sha256.New()
	for _, rec := range res.Records {
		ph := sha256.Sum256([]byte(rec.PolicyText))
		fmt.Fprintf(h, "r %d %q %d %v %q %v %v %x\n", rec.ID, rec.InvalidReason, rec.Perms, rec.HasWebsite,
			rec.GitHubURL, rec.PolicyLinkFound, rec.PolicyLinkDead, ph[:8])
	}
	for _, q := range res.Quarantined {
		fmt.Fprintf(h, "q %s %d %q\n", q.Stage, q.BotID, q.Link)
	}
	fmt.Fprintf(h, "t2 %+v\n", res.Table2)
	if res.Code != nil {
		for _, k := range sortedOutcomes(res.Code.Outcomes) {
			fmt.Fprintf(h, "code %s %d\n", k, res.Code.Outcomes[codeanalysis.LinkOutcome(k)])
		}
		fmt.Fprintf(h, "lang %d %d %d %d\n", res.Code.JSAnalyzed, res.Code.JSChecked, res.Code.PyAnalyzed, res.Code.PyChecked)
	}
	if res.Honeypot != nil {
		for _, v := range res.Honeypot.Verdicts {
			// Canary kinds fire in arrival order; the set is what is deterministic.
			kinds := make([]string, 0, len(v.TriggeredKinds))
			for _, k := range v.TriggeredKinds {
				kinds = append(kinds, k.String())
			}
			sort.Strings(kinds)
			// Responded is left out: whether a responder's reply lands
			// inside a short settle window depends on scheduling.
			fmt.Fprintf(h, "v %d %v %v %v\n", v.Subject.ListingID, v.Triggered, kinds, v.WebhookPersistence)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func sortedOutcomes(m map[codeanalysis.LinkOutcome]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	return keys
}

// recordDigest compares a workload's output digest with the one an
// earlier run of this same benchmark binary recorded for the seed, or
// records it. It returns a violation, or "".
func recordDigest(env *runEnv, name, digest string) string {
	build, err := binaryID()
	if err != nil {
		return ""
	}
	dir := filepath.Join(filepath.Dir(env.work), "digests", build)
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, env.seed))
	if prev, err := os.ReadFile(path); err == nil {
		if got := strings.TrimSpace(string(prev)); got != digest {
			return fmt.Sprintf("output digest %s differs from %s recorded by an earlier run of this build on seed %d", digest, got, env.seed)
		}
		return ""
	}
	if err := os.MkdirAll(dir, 0o755); err == nil {
		_ = os.WriteFile(path, []byte(digest+"\n"), 0o644) // a lost record only skips a later comparison
	}
	return ""
}

// binaryID fingerprints the running benchmark binary, so digests from
// a build of other sources are never compared.
func binaryID() (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(self)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
