package core

import (
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/obs/journal"
)

// TestCloseLeavesNoGoroutines: a run with the journal, the moderate
// fault profile, breakers and checkpoints all on leaves no goroutine
// behind once the auditor and the journal are closed — in particular
// no bot session parked on a connection the gateway dropped.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	reg := obs.NewRegistry()
	jnl := journal.New(io.Discard, journal.Options{Obs: reg})
	a, err := NewAuditor(Options{
		Seed:       7,
		NumBots:    120,
		Honeypot:   HoneypotOptions{Sample: 8, Settle: 200 * time.Millisecond},
		Faults:     FaultOptions{Profile: "moderate", Seed: 3},
		Breakers:   BreakerOptions{Enabled: true},
		Checkpoint: CheckpointOptions{Dir: t.TempDir(), Every: 10},
		Journal:    jnl,
		Obs:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, a)
	a.Close()
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	leakcheck.Settle(t, baseline, 5*time.Second)
}
