package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// hyperionctlBin is the binary under test, built once in TestMain — the
// exit-code contract belongs to the executable, not the package, so
// these tests drive it through os/exec exactly as an operator would.
var hyperionctlBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "hyperionctl-test")
	if err != nil {
		panic(err)
	}
	hyperionctlBin = filepath.Join(dir, "hyperionctl")
	out, err := exec.Command("go", "build", "-o", hyperionctlBin, ".").CombinedOutput()
	if err != nil {
		panic("building hyperionctl: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes hyperionctl with args and returns combined output and
// the exit code (0 on success, -1 if it did not exit normally).
func run(t *testing.T, args ...string) (string, int) {
	t.Helper()
	out, err := exec.Command(hyperionctlBin, args...).CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return string(out), ee.ExitCode()
	}
	t.Fatalf("running hyperionctl %v: %v", args, err)
	return "", -1
}

func TestExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns full control sessions")
	}
	for _, tc := range []struct {
		name     string
		args     []string
		wantExit int
		wantOut  string
	}{
		{"usage", nil, 2, "usage: hyperionctl"},
		{"unknown command", []string{"frobnicate"}, 2, "unknown command"},
		{"status", []string{"status"}, 0, "dpu0"},
		{"load", []string{"load", "-slot", "1", "-mib", "8"}, 0, "partial reconfiguration"},
		{"forged load rejected", []string{"load", "-slot", "1", "-forge"}, 0, "load rejected"},
		{"session", []string{"session"}, 0, "forged bitstream is rejected"},
		{"trace needs positive probes", []string{"trace", "-probes", "0"}, 1, "must be positive"},
		{"trace bad dir", []string{"trace", "-dir", "no-such-dir"}, 1, "not a directory"},
		{"rack", []string{"rack", "-shards", "2", "-boxes", "4"}, 0, "barrier windows"},
		{"rack no boxes", []string{"rack", "-boxes", "0"}, 2, "-boxes >= "},
		{"rack fewer boxes than replicas", []string{"rack", "-boxes", "1"}, 2, "-boxes >= "},
		{"rack no shards", []string{"rack", "-shards", "0"}, 2, "-shards must be >= 1"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			out, exit := run(t, tc.args...)
			if exit != tc.wantExit {
				t.Fatalf("exit = %d, want %d; output:\n%s", exit, tc.wantExit, out)
			}
			if !strings.Contains(out, tc.wantOut) {
				t.Fatalf("output missing %q:\n%s", tc.wantOut, out)
			}
			if strings.Contains(out, "panic") || strings.Contains(out, "goroutine") {
				t.Fatalf("output shows a panic:\n%s", out)
			}
		})
	}
}

// TestTraceCommand drives an armed trace session end to end: the
// per-stage table and critical path print, the artifacts land in -dir,
// and the trace JSON is parseable with a populated event stream.
func TestTraceCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns full control sessions")
	}
	dir := t.TempDir()
	out, exit := run(t, "trace", "-probes", "3", "-dir", dir)
	if exit != 0 {
		t.Fatalf("exit = %d, want 0; output:\n%s", exit, out)
	}
	for _, want := range []string{
		"arbiter", "pipeline", "storage", "egress",
		"critical path", "trace artifacts:",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, "hyperionctl.trace.json"))
	if err != nil {
		t.Fatalf("trace artifact missing: %v", err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("trace JSON unparseable or empty (err=%v)", err)
	}
	for _, name := range []string{"hyperionctl.hist.txt", "hyperionctl.critpath.txt"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("artifact missing: %v", err)
		}
		if len(b) == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
}

// TestTraceDeterministic: two disjoint trace processes at the same
// parameters print byte-identical output — process isolation cannot
// hide wall-clock or map-order leaks.
func TestTraceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns full control sessions")
	}
	a, exitA := run(t, "trace", "-probes", "4")
	b, exitB := run(t, "trace", "-probes", "4")
	if exitA != 0 || exitB != 0 {
		t.Fatalf("exits = %d, %d, want 0", exitA, exitB)
	}
	if a != b {
		t.Fatalf("trace output diverged across processes:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestTenantsCommand drives the multi-tenant scenario through the
// executable: flag validation, a parseable per-tenant SLO table, and
// cross-process byte-identity at a fixed seed.
func TestTenantsCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns full tenant scenarios")
	}
	t.Run("bad flags exit 2", func(t *testing.T) {
		t.Parallel()
		for _, args := range [][]string{
			{"tenants", "-tenants", "0"},
			{"tenants", "-fault", "1.5"},
			{"tenants", "-lease-us", "-1"},
		} {
			out, exit := run(t, args...)
			if exit != 2 {
				t.Fatalf("%v: exit = %d, want 2; output:\n%s", args, exit, out)
			}
			if !strings.Contains(out, "tenants:") {
				t.Fatalf("%v: output missing diagnostic:\n%s", args, out)
			}
		}
	})
	t.Run("reports summary and per-tenant SLO table", func(t *testing.T) {
		t.Parallel()
		out, exit := run(t, "tenants", "-tenants", "8", "-fault", "0.01")
		if exit != 0 {
			t.Fatalf("exit = %d, want 0; output:\n%s", exit, out)
		}
		for _, want := range []string{"== E18", "aa-quiet", "ab-noisy", "zz-late", "goodput/s"} {
			if !strings.Contains(out, want) {
				t.Fatalf("output missing %q:\n%s", want, out)
			}
		}
		// The per-tenant table must parse: every tenant row has the
		// header's column count, and the quiet tenant's row carries a
		// numeric completion count.
		lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
		var header []string
		rows := 0
		for _, line := range lines {
			f := strings.Fields(line)
			if len(f) > 0 && f[0] == "tenant" {
				header = f
				continue
			}
			if header == nil || len(f) == 0 || strings.HasPrefix(f[0], "-") {
				continue
			}
			rows++
			if len(f) != len(header) {
				t.Fatalf("row %q has %d fields, header has %d", line, len(f), len(header))
			}
			if f[0] == "aa-quiet" {
				if _, err := strconv.Atoi(f[7]); err != nil {
					t.Fatalf("quiet tenant ok column %q not numeric: %v", f[7], err)
				}
			}
		}
		if rows != 9 { // 8 arrivals + the late tenant
			t.Fatalf("per-tenant table has %d rows, want 9:\n%s", rows, out)
		}
	})
	t.Run("cross-process byte identity", func(t *testing.T) {
		t.Parallel()
		args := []string{"tenants", "-tenants", "10", "-lease-us", "2000", "-fault", "0.05", "-seed", "7"}
		a, exitA := run(t, args...)
		b, exitB := run(t, args...)
		if exitA != 0 || exitB != 0 {
			t.Fatalf("exits %d/%d, want 0", exitA, exitB)
		}
		if a != b {
			t.Fatalf("two identical invocations diverged:\n--- first ---\n%s\n--- second ---\n%s", a, b)
		}
	})
}
