package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs/journal"
)

// asCommand, as a test binary's first argument, makes the binary run
// botscan's main with the arguments that follow instead of the tests,
// so a test can observe the real command's exit path in a child process.
const asCommand = "run-botscan-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == asCommand {
		os.Args = append([]string{"botscan"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// botscan runs the command in a child process and returns its exit
// status, stdout and stderr.
func botscan(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{asCommand}, args...)...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("run botscan: %v", err)
	}
	return code, out.String(), errOut.String()
}

// TestErrorExitSealsJournal fails a run at different points after the
// journal opens and checks that each error exit still flushes and seals
// the ledgered journal.
func TestErrorExitSealsJournal(t *testing.T) {
	cases := []struct {
		name string
		args func(dir string) []string
	}{
		// NewAuditor rejects the unknown profile before any bot runs.
		{"start-auditor", func(string) []string { return []string{"-fault-profile", "no-such-profile"} }},
		// The export directory is a regular file, so the export fails
		// after the whole pipeline has run.
		{"export", func(dir string) []string {
			file := filepath.Join(dir, "not-a-dir")
			if err := os.WriteFile(file, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			return []string{"-export-dir", file}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "run.jsonl")
			args := append([]string{"-bots", "60", "-sample", "4", "-settle", "5ms",
				"-journal", path, "-ledger-mode", "chain"}, tc.args(dir)...)
			code, _, stderr := botscan(t, args...)
			if code != 1 {
				t.Fatalf("exit status %d, want 1; stderr:\n%s", code, stderr)
			}
			res, err := journal.VerifyFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK || !res.Sealed {
				t.Fatalf("journal after error exit: ok=%v sealed=%v err=%q", res.OK, res.Sealed, res.Err)
			}
		})
	}
}

// TestTraceOutWithTracingOffRejectedUpFront checks that the contradictory
// flag pair fails before the auditor starts: no report is printed and no
// journal is written.
func TestTraceOutWithTracingOffRejectedUpFront(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	code, stdout, stderr := botscan(t, "-bots", "60", "-sample", "4", "-settle", "5ms",
		"-journal", path, "-trace-out", filepath.Join(dir, "trace"), "-trace-level", "off")
	if code != 1 {
		t.Fatalf("exit status %d, want 1; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "-trace-out requires a tracing level other than off") {
		t.Fatalf("stderr does not name the flag conflict:\n%s", stderr)
	}
	if stdout != "" {
		t.Fatalf("pipeline ran before the flag conflict was reported; stdout:\n%s", stdout)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("journal opened before the flag conflict was reported (stat: %v)", err)
	}
}
