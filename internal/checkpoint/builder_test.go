package checkpoint

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/canary"
	"repro/internal/codeanalysis"
	"repro/internal/honeypot"
	"repro/internal/scraper"
)

// saveAndCompare saves b through the store and fails unless the file
// is byte-identical to Encode of the same snapshot.
func saveAndCompare(t *testing.T, st *Store, b *Builder, step string) {
	t.Helper()
	if err := st.SaveBuilder(b); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	got, err := os.ReadFile(st.Path(b.Snapshot().RunID))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := Encode(&want, b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("%s: builder wrote\n%s\nEncode writes\n%s", step, got, want.Bytes())
	}
}

// TestBuilderCoversEverySnapshotField saves the fixture with every
// Snapshot field set. A field added to Snapshot without a Builder
// counterpart fails here: first the fixture check, then the parity.
func TestBuilderCoversEverySnapshotField(t *testing.T) {
	full := sample("run-full")
	full.Schema = SchemaVersion
	full.Completed = true
	v := reflect.ValueOf(full).Elem()
	for i := range v.NumField() {
		if v.Field(i).IsZero() {
			t.Fatalf("fixture leaves Snapshot.%s unset; set it so the parity below covers it", v.Type().Field(i).Name)
		}
	}
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	saveAndCompare(t, st, NewBuilder(full), "full fixture")
	saveAndCompare(t, st, NewBuilder(&Snapshot{RunID: "run-empty"}), "identity-only snapshot")
}

// awkward holds strings encoding/json rewrites: HTML-sensitive
// characters, the JavaScript line separators, invalid UTF-8, quotes,
// backslashes and control characters.
var awkward = []string{
	"plain", "<script>", "a&b", "x>y", "line\u2028sep", "para\u2029sep",
	"bad\xffutf8", "\xc3", `quote"d`, `back\slash`, "tab\tnew\nline", "\x00nul",
	"snowman ☃", "",
}

func pick(rng *rand.Rand) string {
	return awkward[rng.Intn(len(awkward))] + fmt.Sprint(rng.Intn(100))
}

// link draws a code-link key. Keys come from a small alphabet, so new
// keys often sort before ones already present and sometimes repeat.
func link(rng *rand.Rand) string {
	const alphabet = "/az<&\u2028"
	r := []rune(alphabet)
	n := 1 + rng.Intn(4)
	out := make([]rune, n)
	for i := range out {
		out[i] = r[rng.Intn(len(r))]
	}
	if rng.Intn(8) == 0 {
		return string(out) + "\xff"
	}
	return string(out)
}

func randRecord(rng *rand.Rand, id int) *scraper.Record {
	r := &scraper.Record{ID: id, Name: pick(rng), Votes: rng.Intn(1000), PermsValid: rng.Intn(2) == 0}
	if rng.Intn(2) == 0 {
		r.Tags = []string{pick(rng), pick(rng)}
		r.Description = pick(rng)
		r.PolicyText = pick(rng)
		r.InvalidReason = scraper.InvalidRemoved
	}
	return r
}

func randVerdict(rng *rand.Rand, id int) *honeypot.Verdict {
	v := &honeypot.Verdict{
		Subject:   honeypot.Subject{ListingID: id, Name: pick(rng), Prefix: pick(rng)},
		GuildTag:  pick(rng),
		Triggered: rng.Intn(2) == 0,
	}
	if v.Triggered {
		v.Triggers = []canary.Trigger{{TokenID: pick(rng), Kind: canary.KindURL, GuildTag: v.GuildTag,
			At: time.Unix(int64(rng.Intn(1e9)), int64(rng.Intn(1e9))).UTC(), UserAgent: pick(rng)}}
		v.TriggeredKinds = []canary.Kind{canary.KindURL}
		v.BotMessages = []string{pick(rng)}
	}
	return v
}

// randBase draws a snapshot as a resumed run would load it: some
// settled work already present, possibly none.
func randBase(rng *rand.Rand, runID string) *Snapshot {
	s := &Snapshot{RunID: runID, Seed: rng.Int63(), NumBots: rng.Intn(500), HoneypotSample: rng.Intn(50)}
	if rng.Intn(2) == 0 {
		return s
	}
	s.BotIDs = rng.Perm(1 + rng.Intn(20))
	for i := range rng.Intn(5) {
		s.Records = append(s.Records, randRecord(rng, i))
	}
	for i := range rng.Intn(3) {
		s.CollectQuarantine = append(s.CollectQuarantine, QEntry{BotID: 100 + i, Err: pick(rng)})
	}
	if n := rng.Intn(4); n > 0 {
		s.CodeLinks = make(map[string]*codeanalysis.RepoAnalysis)
		for range n {
			l := link(rng)
			s.CodeLinks[l] = &codeanalysis.RepoAnalysis{Link: l, Outcome: codeanalysis.OutcomeValidRepo, PatternsFound: []string{pick(rng)}}
		}
	}
	if rng.Intn(2) == 0 {
		s.CodeLinkErrs = map[string]string{link(rng): pick(rng)}
	}
	for i := range rng.Intn(3) {
		s.Verdicts = append(s.Verdicts, randVerdict(rng, 200+i))
	}
	if rng.Intn(2) == 0 {
		s.HoneypotQuarantine = []QEntry{{BotID: 300, Name: pick(rng), Err: pick(rng)}}
	}
	if rng.Intn(2) == 0 {
		s.BudgetLeft = map[string]int{"collect": rng.Intn(50)}
	}
	return s
}

// TestBuilderMatchesEncodeUnderRandomInterleavings is the property
// test: random interleavings of appends and saves, from fresh and
// resumed bases, must write exactly Encode's bytes at every save.
func TestBuilderMatchesEncodeUnderRandomInterleavings(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st, err := NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var hooked int
		st.AfterSave = func(*Snapshot) { hooked++ }
		b := NewBuilder(randBase(rng, pick(rng)+"-run"))
		saves := 0
		for op := range 300 {
			id := 1000 + op
			switch rng.Intn(10) {
			case 0:
				b.AddRecord(randRecord(rng, id))
			case 1:
				b.AddCollectQuarantine(QEntry{BotID: id, Name: pick(rng), Err: pick(rng)})
			case 2:
				l := link(rng)
				b.SetCodeLink(l, &codeanalysis.RepoAnalysis{BotID: id, Link: l, Outcome: codeanalysis.OutcomeProfile, FullName: pick(rng)})
			case 3:
				b.SetCodeLinkErr(link(rng), pick(rng))
			case 4:
				b.AddVerdict(randVerdict(rng, id))
			case 5:
				b.AddHoneypotQuarantine(QEntry{BotID: id, Name: pick(rng), Err: pick(rng)})
			case 6:
				if len(b.Snapshot().BotIDs) == 0 {
					b.SetBotIDs(rng.Perm(1 + rng.Intn(30)))
				}
			case 7:
				s := b.Snapshot()
				if s.BudgetLeft == nil {
					s.BudgetLeft = make(map[string]int)
				}
				s.BudgetLeft[pick(rng)] = rng.Intn(100)
			default:
				b.Snapshot().Completed = rng.Intn(4) == 0
				saves++
				saveAndCompare(t, st, b, fmt.Sprintf("seed %d op %d", seed, op))
			}
		}
		saves++
		saveAndCompare(t, st, b, fmt.Sprintf("seed %d final", seed))
		if hooked != saves {
			t.Fatalf("seed %d: AfterSave ran %d times for %d saves", seed, hooked, saves)
		}
	}
}
