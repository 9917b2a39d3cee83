// Command perfbench is the repository's benchmark. It drives the audit
// pipeline (synth.Generate → core.NewAuditor → RunAllContext → Close)
// and the gateway traffic plane (platform + gateway + botsdk) through
// their public entry points only, checks every output against ground
// truth derived from the generated inputs, and prints one JSON result
// line as the last line of standard output:
//
//	go build -o perfbench . && ./perfbench --workload audit-paper --seed 1 --seconds 8 --trace 0
//
// --trace 0 measures the end-to-end metrics with all tracing off;
// --trace 1 measures the per-layer metrics: the benchmark's own spans,
// the program's public accounting, Trace.Level=full spans and a CPU
// profile. --workload all runs every workload in its own process and
// prints the summary table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// outcome is what one workload run hands back to main: its accounting
// of attempts and failures, every correctness violation it found, and
// the metrics it measured, keyed by the names in metrics.go.
type outcome struct {
	attempted, failed int64
	problems          []string
	metrics           map[string]float64
	// notes are human-readable lines printed before the result.
	notes []string
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) set(name string, v float64) {
	if o.metrics == nil {
		o.metrics = make(map[string]float64)
	}
	o.metrics[name] = v
}

// runEnv is what every workload receives.
type runEnv struct {
	seed    int64
	seconds time.Duration
	traced  bool
	// work is a scratch directory for journals and checkpoints, removed
	// when the run ends.
	work string
	// out receives the traced run's artifacts (spans, per-layer table,
	// CPU profiles).
	out   string
	spans *spanLog
}

type workload struct {
	name string
	run  func(env *runEnv) (*outcome, error)
}

// workloads are described, with why each exists, in BENCHMARK.json.
var workloads = []workload{
	{"audit-paper", runAuditPaper},
	{"audit-work", runAuditWork},
	{"audit-durable", runAuditDurable},
	{"gateway-chat", runGatewayChat},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run, or \"all\"")
		seed    = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 8, "measurement window in seconds")
		trace   = flag.Int("trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
		root    = flag.String("root", ".", "checkout root; scratch files and trace artifacts go under <root>/.bench_build")
	)
	flag.Parse()
	if *seconds < 1 {
		fail("--seconds must be at least 1")
	}
	if *name == "all" {
		os.Exit(runAll(*root, *seed, *seconds))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fail("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		fail("--trace must be 0 or 1")
	}

	base := filepath.Join(*root, ".bench_build", "perfbench")
	work, err := os.MkdirTemp(mustDir(base), "work-")
	if err != nil {
		fail("scratch dir: %v", err)
	}
	// fail and os.Exit skip deferred calls, so work is removed explicitly.
	env := &runEnv{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		work:    work,
		out:     filepath.Join(base, "trace", fmt.Sprintf("%s-seed%d", w.name, *seed)),
		spans:   newSpanLog(fmt.Sprintf("%s-seed%d-%d", w.name, *seed, time.Now().UnixNano())),
	}
	out, err := w.run(env)
	if err != nil {
		os.RemoveAll(work)
		fail("%s: %v", w.name, err)
	}
	out.set("max_rss_mb", maxRSSMB())
	if env.traced {
		if err := writeTraceArtifacts(env, out); err != nil {
			os.RemoveAll(work)
			fail("trace artifacts: %v", err)
		}
	}
	os.RemoveAll(work)
	os.Exit(printResult(os.Stdout, w.name, env.traced, out))
}

func mustDir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail("%v", err)
	}
	return dir
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// result is the contract's last line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints the workload's notes, every applicable metric under
// its descriptive name, and the result line; it returns the exit code.
func printResult(w *os.File, name string, traced bool, out *outcome) int {
	for _, n := range out.notes {
		fmt.Fprintln(w, n)
	}
	for _, p := range out.problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricJSON),
	}
	if res.Attempted < 1 {
		res.Correct = false
		res.Attempted = 1
		fmt.Fprintln(w, "CHECK FAILED: the run attempted nothing")
	}
	for _, m := range descriptive {
		if v, ok := out.metrics[m.source]; ok && m.applies(name) {
			fmt.Fprintf(w, "metric %-24s %14.6g %s\n", m.name, v, m.unit)
		}
	}
	set := endToEnd
	if traced {
		set = perLayer()
	}
	for _, m := range set {
		v := out.metrics[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		return 2
	}
	fmt.Fprintln(w, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in a child process (so each has its own
// peak RSS) and prints one table of the descriptive metrics.
func runAll(root string, seed int64, seconds int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	code := 0
	rows := make(map[string]map[string]float64)
	for _, w := range workloads {
		vals, ok := runChild(self, root, w.name, seed, seconds)
		if !ok {
			code = 1
		}
		rows[w.name] = vals
	}
	fmt.Printf("\n%-24s %-14s", "metric", "unit")
	for _, w := range workloads {
		fmt.Printf(" %14s", w.name)
	}
	fmt.Println()
	for _, m := range descriptive {
		fmt.Printf("%-24s %-14s", m.name, m.unit)
		for _, w := range workloads {
			v, ok := rows[w.name][m.name]
			if ok && m.applies(w.name) {
				fmt.Printf(" %14.6g", v)
			} else {
				fmt.Printf(" %14s", "-")
			}
		}
		fmt.Println()
	}
	return code
}

// runChild runs one workload in a child process, streams its output,
// and returns the descriptive metrics it printed.
func runChild(self, root, name string, seed int64, seconds int) (map[string]float64, bool) {
	cmd := exec.Command(self, "-root", root, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	os.Stdout.Write(raw)
	vals := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) == 4 && f[0] == "metric" {
			if v, perr := strconv.ParseFloat(f[2], 64); perr == nil {
				vals[f[1]] = v
			}
		}
	}
	return vals, err == nil
}
