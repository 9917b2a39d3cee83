// Command loadgen drives persona traffic — many guilds, many chatting
// users, a fleet of bot sessions over live gateway sockets — against a
// self-hosted platform + gateway, and reports sustained fan-out
// throughput plus the server's overload accounting (shed, dropped,
// reaped). Where botscan audits the ecosystem, loadgen measures the
// platform surviving its users. A run that delivers no events at all
// exits non-zero: the traffic plane carried nothing, whatever the
// overload counters say.
//
// Usage:
//
//	loadgen -sessions 1000 -guilds 16 -duration 10s -fault-profile moderate
//	loadgen -sessions 200 -max-sessions 150 -stalled 1 -slow-consumer drop-oldest
//	loadgen -sessions 500 -out run.json -journal run.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/gateway"
	"repro/internal/loadgen"
	"repro/internal/obs/journal"
	"repro/internal/report"
)

func main() {
	if err := run(); err != nil {
		os.Exit(1) // run has logged the error
	}
}

// run is the whole command. It returns instead of exiting on failure so
// the deferred journal close flushes the journal's tail first.
func run() error {
	var (
		guilds    = flag.Int("guilds", 8, "guild count")
		users     = flag.Int("users-per-guild", 20, "chatting users per guild")
		sessions  = flag.Int("sessions", 64, "bot sessions to connect")
		tenants   = flag.Int("tenants", 8, "distinct bot owners the sessions divide into")
		stalled   = flag.Int("stalled", 0, "clients that identify and then never read (slow-consumer torture)")
		duration  = flag.Duration("duration", 5*time.Second, "publishing window")
		msgRate   = flag.Float64("msg-rate", 50, "user messages/sec per guild")
		reqRate   = flag.Float64("req-rate", 2, "requests/sec per responder bot")
		respFrac  = flag.Float64("responders", 0.25, "fraction of bots that also issue requests")
		profile   = flag.String("fault-profile", "", fmt.Sprintf("inject gateway faults using this named profile (%s)", strings.Join(faults.Names(), ", ")))
		faultSeed = flag.Int64("fault-seed", 1, "fault injector seed")

		maxSessions = flag.Int("max-sessions", 0, "admission cap; connections beyond it are shed (0 = unlimited)")
		identRPS    = flag.Float64("identify-rps", 0, "identify-rate throttle across the listener (0 = unlimited)")
		identBurst  = flag.Int("identify-burst", 0, "identify throttle burst")
		tenantRPS   = flag.Float64("tenant-rps", 0, "per-tenant (bot owner) aggregate request rate (0 = unlimited)")
		tenantBurst = flag.Int("tenant-burst", 0, "per-tenant burst")
		sessionRPS  = flag.Float64("session-rps", 0, "per-session request rate (0 = unlimited)")
		sessBurst   = flag.Int("session-burst", 0, "per-session burst")
		sendQueue   = flag.Int("send-queue", 0, "bounded per-session event queue (0 = default 256)")
		slowPolicy  = flag.String("slow-consumer", "block", "full-queue policy: block, drop-oldest, disconnect")
		writeTO     = flag.Duration("write-timeout", 0, "socket write / blocking-enqueue deadline (0 = default 5s)")
		hbTimeout   = flag.Duration("heartbeat-timeout", 0, "reap sessions silent for this long (0 = off)")

		seed        = flag.Int64("seed", 1, "workload seed")
		out         = flag.String("out", "", "also write the run result as JSON to this file")
		journalPath = flag.String("journal", "", "append gateway lifecycle/shed events to this JSONL journal")
	)
	flag.Parse()
	logger := journal.NewLogger("loadgen", os.Stderr, slog.LevelInfo)
	fail := func(msg string, err error) error {
		logger.Error(msg, "err", err)
		return err
	}

	policy, err := gateway.ParseSlowConsumerPolicy(*slowPolicy)
	if err != nil {
		return fail("slow-consumer", err)
	}
	cfg := loadgen.Config{
		Guilds:        *guilds,
		UsersPerGuild: *users,
		Sessions:      *sessions,
		Tenants:       *tenants,
		Stalled:       *stalled,
		Duration:      *duration,
		MsgRate:       *msgRate,
		ReqRate:       *reqRate,
		ResponderFrac: *respFrac,
		FaultProfile:  *profile,
		FaultSeed:     *faultSeed,
		SessionRPS:    *sessionRPS,
		SessionBurst:  *sessBurst,
		Seed:          *seed,
		Limits: gateway.Limits{
			MaxSessions:      *maxSessions,
			IdentifyRPS:      *identRPS,
			IdentifyBurst:    *identBurst,
			TenantRPS:        *tenantRPS,
			TenantBurst:      *tenantBurst,
			SendQueue:        *sendQueue,
			SlowConsumer:     policy,
			WriteTimeout:     *writeTO,
			HeartbeatTimeout: *hbTimeout,
		},
		Logf: func(format string, args ...any) { logger.Info(fmt.Sprintf(format, args...)) },
	}
	if *journalPath != "" {
		j, err := journal.Open(*journalPath, journal.Options{})
		if err != nil {
			return fail("open journal", err)
		}
		defer j.Close()
		cfg.Journal = j
	}

	res, err := loadgen.Run(context.Background(), cfg)
	if err != nil {
		return fail("loadgen", err)
	}
	report.GatewayLoad(os.Stdout, res)
	if *out != "" {
		raw, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return fail("marshal result", err)
		}
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			return fail("write result", err)
		}
		logger.Info("result written", "path", *out)
	}
	if res.Delivered == 0 {
		return fail("loadgen", fmt.Errorf("run delivered no events"))
	}
	return nil
}
