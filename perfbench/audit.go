package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/listing"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	bottrace "repro/internal/obs/trace"
	"repro/internal/synth"
)

// auditSpec shapes one audit workload's inputs and options.
type auditSpec struct {
	name string
	// nominal is about how long one audit takes on a 2-vCPU box; a run
	// measures round(window / nominal) audits, at least one.
	nominal time.Duration
	// bots is the listing population.
	bots int
	// slowInvites keeps the paper's slow-redirect share of invalid
	// invites; without it that share goes to broken and removed links
	// in their paper proportions, so the invalid share is unchanged.
	slowInvites bool
	// defences turns on the listing's anti-scraping defences as
	// `botscan -defences` does.
	defences bool
	// settle is the honeypot trigger-watch window (0: the 500 ms default).
	settle time.Duration
	// sample is the honeypot sample (0: the paper's 500/20,915 ratio).
	sample int
	// durable adds the Merkle-ledgered journal and checkpoints at the
	// CLI's default cadence.
	durable bool
}

// The CLI defaults that audit-durable keeps (botscan -ledger-batch,
// -ledger-wait-ms and -checkpoint-every).
const (
	ledgerBatch     = 64
	ledgerWait      = 50 * time.Millisecond
	checkpointEvery = 25
	// auditShards is the sharded executor's width: one shard per vCPU
	// of the 2-vCPU reference box.
	auditShards = 2
)

// audit-work's honeypot: the most-voted sample sits at the head of the
// listing, so one worker runs its experiments one after another and
// sample × settle is a serial chain. workSample keeps that chain well
// off the critical path of a CPU-bound crawl; workSettle is five times
// the shortest settle (10 ms) whose verdicts equalled a default 500 ms
// settle run's on seed 1 at 3,000 bots, because under a slowed process
// (the race detector) 10 ms let the planted bot's triggers miss the
// window.
const (
	workSample = 100
	workSettle = 50 * time.Millisecond
)

var (
	// specPaper keeps paper proportions at a size whose declared waits
	// (about 31 slow redirects and 14 settles of 500 ms each) fill the
	// measurement window on two workers.
	specPaper = auditSpec{name: "audit-paper", nominal: 12 * time.Second, bots: 600, slowInvites: true, defences: true}
	specWork  = auditSpec{name: "audit-work", nominal: 10 * time.Second, bots: synth.PaperPopulation, sample: workSample, settle: workSettle}
	// specDurable is specWork plus the bookkeeping.
	specDurable = auditSpec{name: "audit-durable", nominal: 45 * time.Second, bots: synth.PaperPopulation, sample: workSample, settle: workSettle, durable: true}
)

func runAuditPaper(env *runEnv) (*outcome, error)   { return runAuditWorkload(env, specPaper) }
func runAuditWork(env *runEnv) (*outcome, error)    { return runAuditWorkload(env, specWork) }
func runAuditDurable(env *runEnv) (*outcome, error) { return runAuditWorkload(env, specDurable) }

// sampleSize is the honeypot sample for a spec.
func (s auditSpec) sampleSize() int {
	if s.sample > 0 {
		return s.sample
	}
	n := int(math.Round(float64(s.bots) * 500 / synth.PaperPopulation))
	if n < 1 {
		n = 1
	}
	return n
}

// auditInputs generates the workload's ecosystem: a pure function of
// the spec and the seed.
func auditInputs(spec auditSpec, seed int64) *synth.Ecosystem {
	eco := synth.Generate(synth.Config{Seed: seed, NumBots: spec.bots})
	dealInvites(eco, seed, spec.slowInvites)
	return eco
}

// dealInvites re-deals invite health in exact paper proportions. The
// generator draws it per bot, so the number of slow redirects — each a
// 500 ms client timeout, which sets audit-paper's wall time — would
// otherwise vary from seed to seed by several percent. Which bots get
// which health is still decided by the seed. The planted malicious bot
// keeps its valid invite.
func dealInvites(eco *synth.Ecosystem, seed int64, slow bool) {
	cal := synth.PaperCalibration()
	split := cal.InvalidSplit
	if !slow {
		split[2] = 0
	}
	var idx []int
	for i, b := range eco.Bots {
		b.InviteHealth = listing.InviteOK
		if b.ID != eco.MaliciousID {
			idx = append(idx, i)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x1a7e))
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	nInvalid := int(math.Round(float64(len(eco.Bots)) * (1 - cal.ValidPermissionRate)))
	if nInvalid > len(idx) {
		nInvalid = len(idx)
	}
	sum := split[0] + split[1] + split[2]
	nBroken := int(math.Round(float64(nInvalid) * split[0] / sum))
	nRemoved := int(math.Round(float64(nInvalid) * split[1] / sum))
	if !slow {
		nRemoved = nInvalid - nBroken
	}
	for k, i := range idx[:nInvalid] {
		switch {
		case k < nBroken:
			eco.Bots[i].InviteHealth = listing.InviteBroken
		case k < nBroken+nRemoved:
			eco.Bots[i].InviteHealth = listing.InviteRemoved
		default:
			eco.Bots[i].InviteHealth = listing.InviteSlow
		}
	}
}

// auditOptions is the auditor configuration for a spec.
func auditOptions(spec auditSpec, seed int64, eco *synth.Ecosystem, reg *obs.Registry) core.Options {
	opts := core.Options{
		Seed:      seed,
		NumBots:   spec.bots,
		Ecosystem: eco,
		Honeypot:  core.HoneypotOptions{Sample: spec.sampleSize(), Settle: spec.settle},
		Exec:      core.ExecOptions{Shards: auditShards},
		Obs:       reg,
	}
	if spec.defences {
		opts.Scrape.AntiScrape = listing.AntiScrape{
			RequestsPerSecond: 500,
			Burst:             50,
			CaptchaEvery:      200,
			FlakyEvery:        10,
		}
	}
	return opts
}

// auditRun is one audit: set-up, the measured RunAllContext, Close,
// and everything read back from the program's public accounting.
type auditRun struct {
	eco *synth.Ecosystem
	res *core.Results
	reg *obs.Registry

	generate, newAuditor, run, close time.Duration
	cpu                              time.Duration
	goBefore, goAfter                goStats

	ckptWrites   int
	ckptBytes    int64
	journalBytes int64
	ledger       journal.LedgerStats
	ledgerOK     bool
	ledgerErr    string
}

func (r *auditRun) setup() time.Duration { return r.generate + r.newAuditor }

func (r *auditRun) items() int {
	if r.res == nil || r.res.Scale == nil {
		return 0
	}
	return r.res.Scale.Items
}

// auditPass selects how one audit is observed.
type auditPass struct {
	// traced runs the program's Trace.Level=full spans.
	traced bool
	// profile, when set, writes a CPU profile of RunAllContext there.
	profile string
	// setupOnly builds and closes the auditor without running it.
	setupOnly bool
}

// runAudit performs one audit under the benchmark's spans.
func runAudit(env *runEnv, spec auditSpec, pass auditPass) (*auditRun, error) {
	r := &auditRun{}
	rootName := spec.name + ".audit"
	if pass.setupOnly {
		rootName = spec.name + ".setup"
	}
	root, endRoot := env.spans.start(rootName, 0)
	defer endRoot()

	_, endGen := env.spans.start("synth.Generate", root)
	r.eco = auditInputs(spec, env.seed)
	r.generate = endGen()

	_, endNew := env.spans.start("core.NewAuditor", root)
	r.reg = obs.NewRegistry()
	opts := auditOptions(spec, env.seed, r.eco, r.reg)
	if pass.traced {
		opts.Trace.Level = bottrace.LevelFull
	}
	var j *journal.Journal
	var journalPath string
	if spec.durable {
		dir, err := os.MkdirTemp(env.work, "durable-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		journalPath = filepath.Join(dir, "journal.jsonl")
		j, err = journal.Open(journalPath, journal.Options{
			Obs:    r.reg,
			Ledger: journal.LedgerOptions{Mode: journal.LedgerMerkle, Batch: ledgerBatch, Wait: ledgerWait},
		})
		if err != nil {
			return nil, fmt.Errorf("open journal: %w", err)
		}
		defer j.Close()
		st, err := checkpoint.NewStore(filepath.Join(dir, "checkpoints"))
		if err != nil {
			return nil, fmt.Errorf("checkpoint store: %w", err)
		}
		var mu sync.Mutex
		st.AfterSave = func(s *checkpoint.Snapshot) {
			var size int64
			if fi, err := os.Stat(st.Path(s.RunID)); err == nil {
				size = fi.Size()
			}
			mu.Lock()
			r.ckptWrites++
			r.ckptBytes += size
			mu.Unlock()
		}
		opts.Journal = j
		opts.Checkpoint = core.CheckpointOptions{Store: st, Every: checkpointEvery}
	}
	a, err := core.NewAuditor(opts)
	r.newAuditor = endNew()
	if err != nil {
		return nil, fmt.Errorf("new auditor: %w", err)
	}

	if !pass.setupOnly {
		_, endRun := env.spans.start("core.RunAllContext", root)
		var prof *os.File
		if pass.profile != "" {
			if prof, err = startProfile(pass.profile); err != nil {
				a.Close()
				return nil, err
			}
		}
		r.goBefore = readGoStats()
		c0 := cpuTime()
		r.res, err = a.RunAllContext(context.Background())
		r.cpu = cpuTime() - c0
		r.goAfter = readGoStats()
		if prof != nil {
			pprof.StopCPUProfile()
			prof.Close()
		}
		r.run = endRun()
		if err != nil {
			a.Close()
			return nil, fmt.Errorf("run: %w", err)
		}
	}

	_, endClose := env.spans.start("core.Close", root)
	a.Close()
	r.close = endClose()

	if j != nil {
		if err := j.Close(); err != nil {
			return nil, fmt.Errorf("close journal: %w", err)
		}
		r.ledger = j.Ledger()
		if fi, err := os.Stat(journalPath); err == nil {
			r.journalBytes = fi.Size()
		}
		if !pass.setupOnly {
			vr, err := journal.VerifyFile(journalPath)
			switch {
			case err != nil:
				r.ledgerErr = err.Error()
			case !vr.OK:
				r.ledgerErr = fmt.Sprintf("%s (first bad line %d)", vr.Err, vr.FirstBad)
			default:
				r.ledgerOK = true
			}
		}
	}
	return r, nil
}

func startProfile(path string) (*os.File, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// auditSetup times one more set-up: generate, NewAuditor, Close.
func auditSetup(env *runEnv, spec auditSpec) func() (float64, error) {
	return func() (float64, error) {
		r, err := runAudit(env, spec, auditPass{setupOnly: true})
		if err != nil {
			return 0, err
		}
		return r.setup().Seconds(), nil
	}
}

// releaseMemory returns the previous audit's heap to the OS, so each
// audit starts from the same state as the first.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// runAuditWorkload measures as many audits as fill the window, or,
// when traced, one untraced and one traced audit. The count depends on
// the window only, never on how fast an audit ran.
func runAuditWorkload(env *runEnv, spec auditSpec) (*outcome, error) {
	out := &outcome{}
	if env.traced {
		return traceAudit(env, spec, out)
	}
	n := max(1, int(math.Round(float64(env.seconds)/float64(spec.nominal))))
	var runs []*auditRun
	var measured time.Duration
	for len(runs) < n {
		if len(runs) > 0 {
			releaseMemory()
		}
		r, err := runAudit(env, spec, auditPass{})
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
		measured += r.run
	}
	var setups, rates, cpus []float64
	for _, r := range runs {
		setups = append(setups, r.setup().Seconds())
		rates = append(rates, float64(r.items())/r.run.Seconds())
		cpus = append(cpus, r.cpu.Seconds()*1e6/float64(r.items()))
	}
	setups, err := moreSetups(setups, auditSetup(env, spec))
	if err != nil {
		return nil, err
	}
	checkAuditRuns(env, spec, out, runs)
	out.set("setup_s", median(setups))
	out.set("items_per_s", median(rates))
	out.set("cpu_us_per_item", median(cpus))
	out.set("cpu_ms_per_bot", median(cpus)/1000)
	out.note("%s: %d audit(s) of %d items, %.2fs measured; %d setups, median %.6f s", spec.name, len(runs), runs[0].items(), measured.Seconds(), len(setups), median(setups))
	return out, nil
}

// checkAuditRuns applies the correctness gate to every audit of a run
// and compares their output digests with each other and with the one
// recorded for this binary and seed.
func checkAuditRuns(env *runEnv, spec auditSpec, out *outcome, runs []*auditRun) {
	var digests []string
	for i, r := range runs {
		failed, problems, digest := checkAudit(spec, r)
		out.attempted += int64(r.items())
		out.failed += failed
		for _, p := range problems {
			out.problem("audit %d: %s", i+1, p)
		}
		digests = append(digests, digest)
	}
	for i := 1; i < len(digests); i++ {
		if digests[i] != digests[0] {
			out.problem("audit %d output digest %s differs from audit 1's %s on the same seed", i+1, digests[i], digests[0])
		}
	}
	if len(digests) > 0 {
		out.note("%s seed %d output digest %s", spec.name, env.seed, digests[0])
		if p := recordDigest(env, spec.name, digests[0]); p != "" {
			out.problem("%s", p)
		}
	}
	if out.attempted > 0 {
		out.set("bench.fail_ratio", float64(out.failed)/float64(out.attempted))
	}
}
