package loadgen

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"

	"repro/internal/gateway"
)

// TestRunSmoke exercises the whole engine — world build, fleet dial,
// chatters, responders, a stalled client, fault injection — at a tiny
// scale and checks the accounting is coherent.
func TestRunSmoke(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Guilds:        2,
		UsersPerGuild: 3,
		Sessions:      8,
		Tenants:       2,
		Stalled:       1,
		Duration:      400 * time.Millisecond,
		MsgRate:       20,
		ReqRate:       4,
		FaultProfile:  "moderate",
		FaultSeed:     7,
		Limits: gateway.Limits{
			MaxSessions:      16,
			SendQueue:        64,
			SlowConsumer:     gateway.SlowDropOldest,
			WriteTimeout:     time.Second,
			HeartbeatTimeout: 5 * time.Second,
		},
		Seed: 7,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.SessionsConnected != 8 {
		t.Fatalf("connected %d sessions, want 8", res.SessionsConnected)
	}
	if res.Published == 0 {
		t.Fatal("published no messages")
	}
	if res.Delivered == 0 {
		t.Fatal("delivered no events")
	}
	if res.ExpectedFanout < res.Published {
		t.Fatalf("expected fanout %d < published %d", res.ExpectedFanout, res.Published)
	}
	if res.DeliveryRatio <= 0 || res.DeliveryRatio > 1.05 {
		t.Fatalf("implausible delivery ratio %.3f", res.DeliveryRatio)
	}
	if res.Profile != "moderate" {
		t.Fatalf("profile = %q, want moderate", res.Profile)
	}
}

// TestRunShedsAboveCap points more sessions at the gateway than the
// admission cap allows and verifies the surplus is refused, not hung.
func TestRunShedsAboveCap(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Guilds:        1,
		UsersPerGuild: 2,
		Sessions:      10,
		Tenants:       2,
		Duration:      300 * time.Millisecond,
		MsgRate:       10,
		ReqRate:       1,
		Limits: gateway.Limits{
			MaxSessions:  4,
			WriteTimeout: time.Second,
		},
		Seed: 11,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.SessionsConnected > 4 {
		t.Fatalf("connected %d sessions past a cap of 4", res.SessionsConnected)
	}
	if res.Shed == 0 {
		t.Fatal("no sessions shed despite 10 dials against a cap of 4")
	}
	if res.ShedDials == 0 {
		t.Fatal("clients never observed a shed refusal")
	}
	if res.Delivered == 0 {
		t.Fatal("admitted sessions received no events")
	}
}

// drainRun runs drain against a delivered counter that a feeder bumps
// every millisecond until stopFeed closes, and reports how long drain
// took and what it logged.
func drainRun(ctx context.Context, stopFeed <-chan struct{}) (time.Duration, string) {
	var delivered atomic.Int64
	go func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopFeed:
				return
			case <-tick.C:
				delivered.Add(1)
			}
		}
	}()
	var logged strings.Builder
	start := time.Now()
	drain(ctx, &delivered, obs.NewRegistry(), func(format string, args ...any) {
		logged.WriteString(format)
	})
	return time.Since(start), logged.String()
}

// TestDrainReturnsOnceQuiet: drain returns a few polls after the
// counters stop moving, far short of its ceiling.
func TestDrainReturnsOnceQuiet(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	took, logged := drainRun(context.Background(), stop)
	if took >= drainCeiling/2 || logged != "" {
		t.Fatalf("quiet drain took %v (logged %q), want a few %v polls", took, logged, drainPoll)
	}

	stop = make(chan struct{})
	time.AfterFunc(150*time.Millisecond, func() { close(stop) })
	took, logged = drainRun(context.Background(), stop)
	if took < 150*time.Millisecond || took >= drainCeiling || logged != "" {
		t.Fatalf("drain took %v (logged %q), want it to outlast 150ms of deliveries and stop short of the ceiling", took, logged)
	}
}

// TestDrainHonoursCancellationAndCeiling: a drain whose counters never
// settle ends when ctx does, or else at the ceiling with a log line.
func TestDrainHonoursCancellationAndCeiling(t *testing.T) {
	stop := make(chan struct{})
	defer close(stop)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if took, logged := drainRun(ctx, stop); took >= drainCeiling/2 || logged != "" {
		t.Fatalf("cancelled drain took %v (logged %q), want it to end with ctx", took, logged)
	}
	took, logged := drainRun(context.Background(), stop)
	if took < drainCeiling || logged == "" {
		t.Fatalf("busy drain took %v (logged %q), want the %v ceiling and a log line", took, logged, drainCeiling)
	}
}
