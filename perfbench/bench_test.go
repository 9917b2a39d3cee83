package main

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/botsdk"
	"repro/internal/scraper"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}} {
		samples := make([]float64, c.n)
		for i := range samples {
			samples[i] = float64(i)
		}
		p, v := tailPercentile(samples)
		if p != c.want {
			t.Errorf("%d samples: p%g, want p%g", c.n, p, c.want)
		}
		if beyond := c.n - int(math.Ceil(v)); c.want != 50 && beyond < 10 {
			t.Errorf("%d samples: p%g = %g leaves %d samples beyond it", c.n, p, v, beyond)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	if got := quantile(s, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", got)
	}
	if got := quantile(s, 1); got != 4 {
		t.Errorf("max = %g, want 4", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
}

// An open-loop generator that stalls must charge the stall to every
// message due while it lasted, not only to the one it stalled on.
func TestDueTimeLatencyChargesStall(t *testing.T) {
	const stall = 60 * time.Millisecond
	ph := newPhase("x", 400, "g", true)
	ph.t0 = time.Now()
	stop := make(chan struct{})
	var lat []time.Duration
	late := generate(ph, 0, false, stop, func(n int, due time.Duration) bool {
		if n == 20 {
			time.Sleep(stall)
		}
		lat = append(lat, time.Since(ph.t0)-due)
		return n < 2*100
	})
	// Messages 20..~260 are due within the stall (4,000/s), so every
	// one published right after it is at least a few ms late.
	if len(lat) < 101 {
		t.Fatalf("generator published %d messages", len(lat))
	}
	charged := 0
	for _, l := range lat[11:40] { // generator 0 publishes even n: 22..78
		if l > 5*time.Millisecond {
			charged++
		}
	}
	if charged < 25 {
		t.Errorf("only %d of 29 messages due during a %v stall were charged for it: %v", charged, stall, lat[11:40])
	}
	var maxLate time.Duration
	for _, l := range late {
		if l > maxLate {
			maxLate = l
		}
	}
	if maxLate < stall-10*time.Millisecond {
		t.Errorf("generator lateness peaked at %v, want about %v", maxLate, stall)
	}
}

func TestAuditInputsArePureFunctionOfSeed(t *testing.T) {
	spec := auditSpec{name: "t", bots: 300, slowInvites: true}
	a, b, c := auditInputs(spec, 7), auditInputs(spec, 7), auditInputs(spec, 8)
	if !reflect.DeepEqual(a.Bots, b.Bots) || a.MaliciousID != b.MaliciousID || !reflect.DeepEqual(a.Behaviors, b.Behaviors) {
		t.Error("the same seed generated different ecosystems")
	}
	if reflect.DeepEqual(a.Bots, c.Bots) {
		t.Error("different seeds generated the same ecosystem")
	}
	if !reflect.DeepEqual(speakerOrder(7), speakerOrder(7)) || reflect.DeepEqual(speakerOrder(7), speakerOrder(8)) {
		t.Error("gateway speaker order is not a function of the seed")
	}
}

func TestDealInvitesIsExact(t *testing.T) {
	for _, slow := range []bool{true, false} {
		eco := auditInputs(auditSpec{bots: 1000, slowInvites: slow}, 3)
		counts := map[string]int{}
		for _, b := range eco.Bots {
			counts[fmt.Sprint(b.InviteHealth)]++
			if b.ID == eco.MaliciousID && expectedReason(b.InviteHealth) != scraper.InvalidNone {
				t.Error("the malicious bot lost its valid invite")
			}
		}
		for _, seed := range []int64{4, 5} {
			other := map[string]int{}
			for _, b := range auditInputs(auditSpec{bots: 1000, slowInvites: slow}, seed).Bots {
				other[fmt.Sprint(b.InviteHealth)]++
			}
			if !reflect.DeepEqual(counts, other) {
				t.Errorf("slow=%v: seed 3 dealt %v, seed %d dealt %v", slow, counts, seed, other)
			}
		}
	}
}

// smallAudit runs one real audit of a small CPU-bound population.
func smallAudit(t *testing.T) (auditSpec, *auditRun) {
	t.Helper()
	spec := specWork
	// A settle long enough for the race detector's slowdown.
	spec.name, spec.bots, spec.sample, spec.settle = "audit-test", 120, 3, 300*time.Millisecond
	env := &runEnv{seed: 11, work: t.TempDir(), spans: newSpanLog("test")}
	r, err := runAudit(env, spec, auditPass{})
	if err != nil {
		t.Fatal(err)
	}
	return spec, r
}

func TestAuditGateAcceptsAndRejectsTampering(t *testing.T) {
	spec, r := smallAudit(t)
	failed, problems, digest := checkAudit(spec, r)
	if failed != 0 || len(problems) != 0 {
		t.Fatalf("untampered audit: %d failed, problems %v", failed, problems)
	}

	recs := r.res.Records
	r.res.Records = append(append([]*scraper.Record(nil), recs[:5]...), recs[6:]...)
	if _, problems, _ := checkAudit(spec, r); len(problems) == 0 {
		t.Error("the gate accepted a result with one record dropped")
	}
	r.res.Records = append(append([]*scraper.Record(nil), recs...), recs[3])
	if _, problems, _ := checkAudit(spec, r); len(problems) == 0 {
		t.Error("the gate accepted a result with one record duplicated")
	}
	r.res.Records = recs

	t2 := r.res.Table2
	r.res.Table2.PolicyValid++
	if _, problems, _ := checkAudit(spec, r); len(problems) == 0 {
		t.Error("the gate accepted a Table 2 off by one")
	}
	r.res.Table2 = t2

	v := r.res.Honeypot.Verdicts[len(r.res.Honeypot.Verdicts)-1]
	v.Triggered = !v.Triggered
	if _, problems, _ := checkAudit(spec, r); len(problems) == 0 {
		t.Error("the gate accepted a flipped honeypot verdict")
	}
	v.Triggered = !v.Triggered
	if _, _, again := checkAudit(spec, r); again != digest {
		t.Errorf("digest changed after restoring the result: %s vs %s", again, digest)
	}
}

func TestGatewayGateRejectsDuplicateAndForeignEvents(t *testing.T) {
	w := &gwWorld{botIDs: [2]string{"b0", "b1"}}
	mk := func() (*gwPhase, *phaseStats) {
		ph := newPhase("f", 8, "g1", true)
		ph.t0 = time.Now()
		for n := 0; n < 4; n++ {
			ph.due[n].Store(int64(n + 1))
			ph.next.Add(1)
		}
		return ph, &phaseStats{published: 4}
	}
	msg := func(ph *gwPhase, n int, guild string) *botsdk.Message {
		return &botsdk.Message{ID: fmt.Sprint(n), GuildID: guild, Content: ph.content('m', n)}
	}
	check := func(ph *gwPhase, st *phaseStats) (int64, []string) {
		var problems []string
		_, lost := checkPhase(w, ph, st, func(f string, a ...any) { problems = append(problems, fmt.Sprintf(f, a...)) })
		return lost, problems
	}

	ph, st := mk()
	for s := 0; s < 2; s++ {
		for n := 0; n < 4; n++ {
			ph.deliver(s, msg(ph, n, "g1"))
		}
	}
	if lost, problems := check(ph, st); lost != 0 || len(problems) != 0 {
		t.Fatalf("clean phase: lost %d, problems %v", lost, problems)
	}
	ph.deliver(1, msg(ph, 2, "g1"))
	if _, problems := check(ph, st); len(problems) == 0 {
		t.Error("the gate accepted a duplicated event")
	}

	ph, st = mk()
	ph.deliver(0, msg(ph, 1, "other-guild"))
	ph.deliver(0, msg(ph, 6, "g1")) // never published
	if _, problems := check(ph, st); len(problems) != 1 || !strings.Contains(problems[0], "2 events") {
		t.Errorf("the gate missed a foreign or unpublished event: %v", problems)
	}

	ph, st = mk()
	ph.deliver(0, msg(ph, 0, "g1"))
	if lost, _ := check(ph, st); lost != 7 {
		t.Errorf("lost %d events, want 7 of 8", lost)
	}
}

func TestBacklogGrowing(t *testing.T) {
	if backlogGrowing([]int64{0, 3, 1, 2, 0, 4, 2, 1, 0, 3}) {
		t.Error("a flat backlog was flagged")
	}
	if !backlogGrowing([]int64{0, 10, 50, 200, 400, 600, 800, 1000, 1200, 1400}) {
		t.Error("a growing backlog was not flagged")
	}
}

func TestProfileBucketing(t *testing.T) {
	for want, frames := range map[string][]string{
		"gc":         {"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		"syscall":    {"internal/runtime/syscall.Syscall6", "syscall.write", "repro/internal/gateway.writeFrame"},
		"core.sched": {"runtime.lock", "repro/internal/core/sched.(*Gate).Acquire", "repro/internal/core.(*Auditor).runSharded"},
		"htmlparse":  {"strings.NewReplacer", "repro/internal/htmlparse.EscapeText", "repro/internal/listing.render"},
		"botsdk":     {"strconv.Atoi", "repro/internal/botsdk.(*Session).dispatch", "main.runGatewayChat"},
		"bench":      {"main.generate", "runtime.goexit"},
		"runtime":    {"runtime.findRunnable", "runtime.schedule"},
		"other":      {"net/http.(*conn).serve"},
	} {
		if got := bucketOf(frames); got != want {
			t.Errorf("bucketOf(%v) = %s, want %s", frames, got, want)
		}
	}
}

func TestMetricNamesAreUniqueAndFit(t *testing.T) {
	for _, set := range [][]metricDef{endToEnd, perLayer()} {
		seen := map[string]bool{}
		for _, m := range set {
			if seen[m.name] {
				t.Errorf("metric %s listed twice", m.name)
			}
			seen[m.name] = true
			if len(m.name) > 64 || len(m.unit) > 16 {
				t.Errorf("metric %s/%s too long", m.name, m.unit)
			}
		}
	}
	if n := len(perLayer()); n > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", n)
	}
}
