package main

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneStudyKeepsCheckedInReport runs one smoke study in an empty
// directory: it must print its table and create no BENCH_studies.json, so
// `popbench -study fig11` cannot overwrite the checked-in report. Only an
// explicit -out writes a one-study report.
func TestOneStudyKeepsCheckedInReport(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()

	args := []string{"-study", "fig13", "-smoke", "-sf", "0.002"}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Study fig13") {
		t.Errorf("no fig13 table in the output:\n%s", stdout.String())
	}
	if _, err := os.Stat(defaultOut); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("a one-study run created %s (stat: %v)", defaultOut, err)
	}

	out := filepath.Join(dir, "fig13.json")
	if code := run(append(args, "-out", out), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d with -out: %s", code, stderr.String())
	}
	if raw, err := os.ReadFile(out); err != nil || !bytes.Contains(raw, []byte(`"study": "fig13"`)) {
		t.Errorf("-out report missing or without fig13 (err %v):\n%s", err, raw)
	}
	if _, err := os.Stat(defaultOut); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a run with -out created %s (stat: %v)", defaultOut, err)
	}
}

// TestUsage pins the exit codes: no flags or an unknown flag is a usage
// error (2), an unknown study a run error (1).
func TestUsage(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{"-fig", "11"}, 2},
		{[]string{"-study", "nope", "-sf", "0.001"}, 1},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.code {
			t.Errorf("popbench %v: exit %d, want %d (%s)", c.args, code, c.code, stderr.String())
		}
	}
}
