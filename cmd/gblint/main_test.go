package main

import (
	"bytes"
	"strings"
	"testing"
)

// gblint runs the CLI in-process and returns its exit code and output.
func gblint(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestCleanPackageExitsZero(t *testing.T) {
	code, out, errOut := gblint("./internal/ip4")
	if code != 0 || out != "" {
		t.Fatalf("gblint ./internal/ip4 = exit %d, stdout %q, stderr %q; want exit 0, no output",
			code, out, errOut)
	}
}

// The lock-io call-graph corpus reports, through the summaries, calls
// that reach I/O with the witness chain spelled out.
func TestFindingsExitOne(t *testing.T) {
	code, out, errOut := gblint("./internal/lint/testdata/src/lockiodeep")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stdout %q, stderr %q", code, out, errOut)
	}
	deep := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasSuffix(line, "[lock-io]") && strings.Contains(line, "reaches I/O: cache.flush -> os.WriteFile") {
			deep = true
		}
	}
	if !deep {
		t.Errorf("no [lock-io] finding with a -> witness chain in:\n%s", out)
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-checks", "bogus", "./internal/ip4"},
		{"-cache", "x", "./internal/ip4"}, // not a flag: gblint has no run cache
	} {
		if code, out, errOut := gblint(args...); code != 2 {
			t.Errorf("gblint %v = exit %d, want 2; stdout %q, stderr %q", args, code, out, errOut)
		}
	}
}

func TestListPrintsEightChecks(t *testing.T) {
	code, out, _ := gblint("-list")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if code != 0 || len(lines) != 8 {
		t.Fatalf("gblint -list = exit %d, %d lines; want exit 0, 8 checks:\n%s", code, len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "lock-io ") {
		t.Errorf("second check is %q, want lock-io", lines[1])
	}
}
