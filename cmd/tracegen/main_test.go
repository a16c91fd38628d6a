package main

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain doubles the test binary as the tracegen command: with
// TRACEGEN_TEST_MAIN=1 it runs main on its own arguments, so the tests
// below drive real tracegen processes without a separate build.
func TestMain(m *testing.M) {
	if os.Getenv("TRACEGEN_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tracegen runs one tracegen process to completion and returns its
// stdout.
func tracegen(t *testing.T, args ...string) string {
	t.Helper()
	cmd := tracegenCmd(t, context.Background(), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("tracegen %v: %v\n%s%s", args, err, stdout.String(), stderr.String())
	}
	return stdout.String()
}

func tracegenCmd(t *testing.T, ctx context.Context, args ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "TRACEGEN_TEST_MAIN=1")
	return cmd
}

// storeFiles returns the names and bytes of everything in a store
// directory.
func storeFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

// TestMultiRangeBuildsMatchSinglePass pins every multi-range way to
// build a store with tracegen to the single streaming build, byte for
// byte: two -shard-range parts adopted and merged by one -workers 2
// run, a -workers 2 build from scratch, and a -hosts build streamed
// from a -serve daemon. Each store must hold exactly the snapshot and
// its manifest.
func TestMultiRangeBuildsMatchSinglePass(t *testing.T) {
	base := t.TempDir()
	key := []string{"-users", "20", "-weeks", "1", "-seed", "3"}
	snap := func(name string, extra ...string) (string, string) {
		dir := filepath.Join(base, name)
		return dir, tracegen(t, append(append([]string{"-snapshot", dir}, key...), extra...)...)
	}
	single, _ := snap("single")
	want := storeFiles(t, single)
	if len(want) != 2 {
		t.Fatalf("single-pass store holds %d files, want snapshot + manifest", len(want))
	}

	parts, _ := snap("parts", "-shard-range", "0:11")
	snap("parts", "-shard-range", "11:20")
	if _, out := snap("parts", "-workers", "2"); !strings.Contains(out, "resumed=2") {
		t.Fatalf("-workers 2 did not adopt the two sealed parts:\n%s", out)
	}
	workers, _ := snap("workers", "-workers", "2")

	ctx, cancel := context.WithCancel(context.Background())
	addrFile := filepath.Join(base, "daemon.addr")
	daemon := tracegenCmd(t, ctx, "-snapshot", filepath.Join(base, "daemon"), "-serve", "127.0.0.1:0", "-addr-file", addrFile)
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer daemon.Wait()
	defer cancel()
	var addr []byte
	for deadline := time.Now().Add(10 * time.Second); len(addr) == 0; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("daemon never published its address")
		}
		addr, _ = os.ReadFile(addrFile)
	}
	hosts, _ := snap("hosts", "-hosts", strings.TrimSpace(string(addr)))

	for _, dir := range []string{parts, workers, hosts} {
		got := storeFiles(t, dir)
		if len(got) != len(want) {
			t.Fatalf("%s holds %d files, want %d", dir, len(got), len(want))
		}
		for name, b := range want {
			if !bytes.Equal(got[name], b) {
				t.Fatalf("%s: %s differs from the single-pass build", dir, name)
			}
		}
	}
}

// TestCoordinatorFlagsNeedCoordinatedBuild pins that coordinator-only
// flags are refused, not silently ignored, on a single-pass build.
func TestCoordinatorFlagsNeedCoordinatedBuild(t *testing.T) {
	cmd := tracegenCmd(t, context.Background(), "-snapshot", t.TempDir(), "-users", "4", "-halt-after", "1")
	out, err := cmd.CombinedOutput()
	if err == nil || !strings.Contains(string(out), "needs a coordinated build") {
		t.Fatalf("err = %v, output:\n%s", err, out)
	}
}
