package main

import "strings"

// metricDef is one metric of the result line.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a --trace 0 run reports. Every workload
// reports all of them: items_per_s is bots per second of
// RunAllContext on the audits and delivered events per second at
// saturation on gateway-chat; cpu_us_per_item is process CPU per bot
// on the audits and per delivered event at saturation on gateway-chat.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"items_per_s", "items/s"},
	{"cpu_us_per_item", "us"},
	{"max_rss_mb", "MB"},
}

// auditStages are the sharded executor's gates.
var auditStages = []string{"collect", "traceability", "codeanalysis", "honeypot"}

// profileBuckets are the cpu_share.<bucket> names: one per package
// under repro/internal (nested packages joined with '.'), plus gc,
// syscall, the Go runtime, the benchmark itself and everything else.
var profileBuckets = []string{
	"botsdk", "canary", "checkpoint", "codeanalysis", "codehost", "core",
	"core.sched", "corpus", "faults", "gateway", "honeypot", "htmlparse",
	"listing", "obs", "obs.journal", "obs.ops", "obs.trace", "permissions",
	"platform", "policygen", "report", "retry", "scraper", "synth",
	"traceability", "vetting",
	"gc", "syscall", "runtime", "bench", "other",
}

// perLayerFixed are the per-layer metrics besides the per-stage and
// per-bucket families.
var perLayerFixed = []metricDef{
	// Set-up split.
	{"synth.generate_s", "s"},
	{"core.new_auditor_s", "s"},
	{"core.close_s", "s"},
	{"platform.world_s", "s"},
	{"botsdk.dial_s", "s"},
	// Executor.
	{"sched.busy_share", "ratio"},
	{"sched.steals", "count"},
	{"sched.imbalance", "ratio"},
	// Crawler.
	{"scraper.fetches_per_bot", "count"},
	{"scraper.fetch_p50_ms", "ms"},
	{"scraper.work_ms", "ms"},
	{"scraper.retries", "count"},
	{"scraper.timeouts", "count"},
	{"scraper.captchas", "count"},
	// Declared waits versus work.
	{"wait.slow_redirect_ms", "ms"},
	{"wait.settle_ms", "ms"},
	{"wait.captcha_ms", "ms"},
	{"wait.retry_ms", "ms"},
	{"wait_share", "ratio"},
	{"work_share", "ratio"},
	{"idle_share", "ratio"},
	{"wait.reconcile_error", "ratio"},
	// Analysis.
	{"traceability.audit_us_per_bot", "us"},
	{"codeanalysis.ms_per_link", "ms"},
	{"honeypot.work_ms", "ms"},
	// Bookkeeping.
	{"checkpoint.writes", "count"},
	{"checkpoint.bytes_per_bot", "B"},
	{"journal.events", "count"},
	{"journal.bytes", "B"},
	{"journal.ledger_records", "count"},
	{"journal.dropped", "count"},
	// Traffic plane.
	{"platform.publish_us", "us"},
	{"gateway.fixed_cpu_us_per_event", "us"},
	{"gateway.events_out", "count"},
	{"gateway.events_dropped", "count"},
	{"gateway.sub_events_dropped", "count"},
	{"botsdk.send_p50_ms", "ms"},
	{"botsdk.history_p50_ms", "ms"},
	{"gateway.event_p50_ms", "ms"},
	{"gateway.event_p99_ms", "ms"},
	{"botsdk.rpc_p50_ms", "ms"},
	{"botsdk.rpc_p99_ms", "ms"},
	{"gen.lateness_p99_ms", "ms"},
	{"gen.backlog", "count"},
	{"gen.backlog_growing", "flag"},
	// Whole run.
	{"bench.fail_ratio", "ratio"},
	{"go.allocs_per_item", "count"},
	{"go.alloc_bytes_per_item", "B"},
	{"go.gc_cpu_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// perLayer is every metric a --trace 1 run reports; a layer a workload
// does not exercise reads 0.
func perLayer() []metricDef {
	out := append([]metricDef(nil), perLayerFixed...)
	for _, st := range auditStages {
		out = append(out, metricDef{"sched.gate_busy_ms." + st, "ms"}, metricDef{"sched.gate_peak_inflight." + st, "count"})
	}
	for _, b := range profileBuckets {
		out = append(out, metricDef{"cpu_share." + b, "ratio"})
	}
	return out
}

// descMetric is a metric under its descriptive name (as ROADMAP.md
// uses them), printed (not part of the result line) by every run on
// the workloads it applies to.
type descMetric struct {
	name, unit string
	// source is the outcome metric it reads.
	source string
	// only is a workload-name prefix; "" applies everywhere.
	only string
}

var descriptive = []descMetric{
	{"setup_s", "s", "setup_s", ""},
	{"bots_per_s", "items/s", "items_per_s", "audit-"},
	{"cpu_ms_per_bot", "ms", "cpu_ms_per_bot", "audit-"},
	{"max_rss_mb", "MB", "max_rss_mb", ""},
	{"fail_ratio", "ratio", "bench.fail_ratio", ""},
	{"gw_events_per_s", "events/s", "items_per_s", "gateway-"},
	{"gw_cpu_us_per_event", "us", "gateway.fixed_cpu_us_per_event", "gateway-"},
	{"gw_sat_cpu_us_per_event", "us", "cpu_us_per_item", "gateway-"},
	{"event_p50_ms", "ms", "gateway.event_p50_ms", "gateway-"},
	{"event_p99_ms", "ms", "gateway.event_p99_ms", "gateway-"},
	{"rpc_p50_ms", "ms", "botsdk.rpc_p50_ms", "gateway-"},
	{"rpc_p99_ms", "ms", "botsdk.rpc_p99_ms", "gateway-"},
}

func (m descMetric) applies(workload string) bool {
	return m.only == "" || strings.HasPrefix(workload, m.only)
}
