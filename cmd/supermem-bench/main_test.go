package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCLI builds this command into a temporary directory.
func buildCLI(t *testing.T) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "supermem-bench")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// run executes the command in dir and returns its exit code and stderr.
func run(t *testing.T, bin, dir string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatalf("running %v: %v", args, err)
	return 0, ""
}

// TestCLIFlags drives the built command: a stray positional argument
// must stop it with usage before anything runs (flag parsing would
// otherwise drop every flag after it), and -cpuprofile/-memprofile
// must write their profiles.
func TestCLIFlags(t *testing.T) {
	bin := buildCLI(t)

	t.Run("stray argument", func(t *testing.T) {
		dir := t.TempDir()
		code, stderr := run(t, bin, dir, "-exp", "table1", "stray", "-json")
		if code != 2 {
			t.Errorf("exit %d, want 2", code)
		}
		if !strings.Contains(stderr, `unexpected argument "stray"`) || !strings.Contains(stderr, "Usage") {
			t.Errorf("stderr lacks the error and usage:\n%s", stderr)
		}
		if _, err := os.Stat(filepath.Join(dir, "BENCH_table1.json")); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("BENCH_table1.json written (stat: %v)", err)
		}
	})

	t.Run("profiles", func(t *testing.T) {
		dir := t.TempDir()
		code, stderr := run(t, bin, dir, "-exp", "fig16", "-transactions", "2", "-footprint", "65536",
			"-parallel", "1", "-cpuprofile", "cpu.out", "-memprofile", "mem.out")
		if code != 0 {
			t.Fatalf("exit %d: %s", code, stderr)
		}
		for _, name := range []string{"cpu.out", "mem.out"} {
			if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
				t.Errorf("%s not written (%v)", name, err)
			}
		}
	})
}
