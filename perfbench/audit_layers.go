package main

import (
	"path/filepath"
	"sort"
	"strings"
	"time"

	bottrace "repro/internal/obs/trace"
)

// traceAudit is the per-layer run of an audit workload: one untraced
// audit (pass A) and one with Trace.Level=full (pass B), each under a
// CPU profile. Pass A gives the executor, crawler, bookkeeping, Go
// runtime and CPU-profile layers; pass B's spans give the wait-versus-
// work split; the two walls give the tracing overhead.
func traceAudit(env *runEnv, spec auditSpec, out *outcome) (*outcome, error) {
	a, err := runAudit(env, spec, auditPass{profile: filepath.Join(env.out, "cpu-untraced.pprof")})
	if err != nil {
		return nil, err
	}
	releaseMemory()
	b, err := runAudit(env, spec, auditPass{traced: true, profile: filepath.Join(env.out, "cpu-traced.pprof")})
	if err != nil {
		return nil, err
	}
	checkAuditRuns(env, spec, out, []*auditRun{a, b})

	setups, err := moreSetups([]float64{a.setup().Seconds(), b.setup().Seconds()}, auditSetup(env, spec))
	if err != nil {
		return nil, err
	}
	out.set("setup_s", median(setups))
	out.set("items_per_s", float64(a.items())/a.run.Seconds())
	out.set("cpu_us_per_item", a.cpu.Seconds()*1e6/float64(a.items()))
	out.set("cpu_ms_per_bot", a.cpu.Seconds()*1e3/float64(a.items()))
	out.set("synth.generate_s", a.generate.Seconds())
	out.set("core.new_auditor_s", a.newAuditor.Seconds())
	out.set("core.close_s", a.close.Seconds())
	out.set("trace.overhead_share", b.run.Seconds()/a.run.Seconds()-1)
	setGoLayers(out, a.goBefore, a.goAfter, int64(a.items()))

	sc := a.res.Scale
	workers := float64(sc.Workers)
	var busy float64
	for _, g := range sc.Stages {
		out.set("sched.gate_busy_ms."+g.Stage, g.BusyMS)
		out.set("sched.gate_peak_inflight."+g.Stage, float64(g.MaxInflight))
		busy += g.BusyMS
	}
	out.set("sched.busy_share", busy/(workers*sc.ElapsedMS))
	out.set("sched.steals", float64(sc.Steals))
	out.set("sched.imbalance", sc.ShardImbalance)

	st := a.res.Scraper
	out.set("scraper.fetches_per_bot", float64(st.Requests)/float64(sc.Bots))
	out.set("scraper.retries", float64(st.Retries+st.TransientRetries))
	out.set("scraper.timeouts", float64(st.Timeouts))
	out.set("scraper.captchas", float64(st.CaptchasSolved))

	out.set("checkpoint.writes", float64(a.ckptWrites))
	out.set("checkpoint.bytes_per_bot", float64(a.ckptBytes)/float64(sc.Bots))
	out.set("journal.events", float64(a.ledger.Seq))
	out.set("journal.bytes", float64(a.journalBytes))
	out.set("journal.ledger_records", float64(a.ledger.Records))
	out.set("journal.dropped", float64(a.reg.Counter("journal_events_dropped_total").Value()))

	shares, samples, err := profileShares(filepath.Join(env.out, "cpu-untraced.pprof"))
	if err != nil {
		return nil, err
	}
	for k, v := range shares {
		out.set("cpu_share."+k, v)
	}
	out.note("cpu profile of the untraced audit: %d samples", samples)

	sc = b.res.Scale
	w := waitWork(b.res.BotTrace.Ops(), float64(sc.Workers)*sc.ElapsedMS, gateBusyMS(b))
	for k, v := range w {
		out.set(k, v)
	}
	out.note("%s traced split over %d workers × %.0f ms: wait %.3f, work %.3f, idle %.3f (reconcile error %.4f)",
		spec.name, sc.Workers, sc.ElapsedMS, w["wait_share"], w["work_share"], w["idle_share"], w["wait.reconcile_error"])
	return out, nil
}

func gateBusyMS(r *auditRun) float64 {
	var busy float64
	for _, g := range r.res.Scale.Stages {
		busy += g.BusyMS
	}
	return busy
}

const slowInvitePrefix = "/oauth/slow/"

func isFetch(name string) bool { return name == "page_fetch" || name == "retry_attempt" }

func durMS(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }

// waitWork splits a traced audit's worker time into declared waits and
// work from the program's full-level spans:
//   - wait.slow_redirect_ms: invite_redirect ops on /oauth/slow/, which
//     wait out the client timeout;
//   - wait.settle_ms: honeypot_settle ops;
//   - wait.captcha_ms: captcha_solve ops;
//   - wait.retry_ms: the backoff gap before each retry_attempt, from the
//     end of the same bot's previous fetch in the same stage.
//
// Work is the bot-stage spans minus those waits; idle is the rest of
// workers × wall. reconcile_error compares the bot-stage spans with
// the executor gates' own busy accounting, as a share of workers × wall.
func waitWork(ops []bottrace.Op, capacityMS, gateBusy float64) map[string]float64 {
	var slow, settle, captcha, retryWait, stageMS, fetchWorkMS float64
	var fetchDurs []float64
	var auditUS, auditN, codeMS, codeN, hpMS float64
	type key struct {
		bot   int32
		stage string
	}
	fetches := make(map[key][]bottrace.Op)
	for _, op := range ops {
		switch op.Kind {
		case bottrace.KindStage:
			d := durMS(op.DurNS)
			stageMS += d
			switch op.Stage {
			case "traceability":
				auditUS += d * 1000
				auditN++
			case "codeanalysis":
				codeMS += d
				codeN++
			case "honeypot":
				hpMS += d
			}
		case bottrace.KindOp:
			d := durMS(op.DurNS)
			switch {
			case op.Name == "invite_redirect" && strings.HasPrefix(op.Detail, slowInvitePrefix):
				slow += d
			case op.Name == "honeypot_settle":
				settle += d
			case op.Name == "captcha_solve":
				captcha += d
			}
			if isFetch(op.Name) || op.Name == "captcha_solve" {
				k := key{op.BotID, op.Stage}
				fetches[k] = append(fetches[k], op)
			}
			if isFetch(op.Name) && op.Stage == "collect" {
				fetchDurs = append(fetchDurs, d)
				if !strings.HasPrefix(op.Detail, slowInvitePrefix) {
					fetchWorkMS += d
				}
			}
		}
	}
	for _, seq := range fetches {
		sort.Slice(seq, func(i, j int) bool { return seq[i].StartNS < seq[j].StartNS })
		for i := 1; i < len(seq); i++ {
			if seq[i].Name != "retry_attempt" {
				continue
			}
			if gap := seq[i].StartNS - seq[i-1].EndNS(); gap > 0 {
				retryWait += durMS(gap)
			}
		}
	}
	waits := slow + settle + captcha + retryWait
	sort.Float64s(fetchDurs)
	out := map[string]float64{
		"wait.slow_redirect_ms": slow,
		"wait.settle_ms":        settle,
		"wait.captcha_ms":       captcha,
		"wait.retry_ms":         retryWait,
		"scraper.work_ms":       fetchWorkMS,
		"honeypot.work_ms":      hpMS - settle,
	}
	if len(fetchDurs) > 0 {
		out["scraper.fetch_p50_ms"] = quantile(fetchDurs, 0.5)
	}
	if auditN > 0 {
		out["traceability.audit_us_per_bot"] = auditUS / auditN
	}
	if codeN > 0 {
		out["codeanalysis.ms_per_link"] = codeMS / codeN
	}
	if capacityMS > 0 {
		out["wait_share"] = waits / capacityMS
		out["work_share"] = (stageMS - waits) / capacityMS
		out["idle_share"] = (capacityMS - stageMS) / capacityMS
		diff := gateBusy - stageMS
		if diff < 0 {
			diff = -diff
		}
		out["wait.reconcile_error"] = diff / capacityMS
	}
	return out
}
