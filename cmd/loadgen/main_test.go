package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/obs/journal"
)

// asCommand, as a test binary's first argument, makes the binary run
// loadgen's main with the arguments that follow instead of the tests,
// so a test can observe the real command's exit status.
const asCommand = "run-loadgen-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == asCommand {
		os.Args = append([]string{"loadgen"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runLoadgen runs the command in a child process and returns its exit
// status and stderr.
func runLoadgen(t *testing.T, args ...string) (code int, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{asCommand}, args...)...)
	var errOut bytes.Buffer
	cmd.Stderr = &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("run loadgen: %v", err)
	}
	return code, errOut.String()
}

// TestExitStatusFollowsDelivery runs a two-session fleet in one guild,
// where the chatting users are the only source of delivered events (two
// sessions at the default responder fraction make no responder). A rate
// of one message per 100s per guild delivers nothing in the window and
// must exit 1; a -msg-rate of 0 would not do, as loadgen.Config maps a
// zero rate to its default of 50 messages/sec. Either way the journal's
// tail must be flushed.
func TestExitStatusFollowsDelivery(t *testing.T) {
	for _, tc := range []struct {
		msgRate  string
		wantCode int
	}{
		{"0.01", 1},
		{"20", 0},
	} {
		t.Run("msg-rate-"+tc.msgRate, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.jsonl")
			code, stderr := runLoadgen(t, "-sessions", "2", "-guilds", "1", "-users-per-guild", "2",
				"-tenants", "1", "-duration", "300ms", "-msg-rate", tc.msgRate, "-journal", path)
			if code != tc.wantCode {
				t.Fatalf("exit status %d, want %d; stderr:\n%s", code, tc.wantCode, stderr)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			events, _, err := journal.Decode(f)
			if err != nil {
				t.Fatal(err)
			}
			if len(events) == 0 {
				t.Fatal("journal is empty: its tail was not flushed")
			}
		})
	}
}
