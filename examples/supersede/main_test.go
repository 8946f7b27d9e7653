package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden file under testdata/")

// runAsMain makes the test binary run the example when the golden test
// re-executes it.
const runAsMain = "EXAMPLE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// The providers listen on an ephemeral port and the rewriting is timed, so
// the listening address and the "in <duration>" token are normalised.
var (
	listenAddr = regexp.MustCompile(`127\.0\.0\.1:[0-9]+`)
	elapsed    = regexp.MustCompile(` in [0-9.]+[µnm]?s\n`)
)

// TestStdoutGolden pins the example's stdout byte for byte.
func TestStdoutGolden(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), runAsMain+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("example: %v\n%s", err, stderr.String())
	}
	got = listenAddr.ReplaceAll(got, []byte("127.0.0.1:PORT"))
	got = elapsed.ReplaceAll(got, []byte(" in DURATION\n"))
	path := filepath.Join("testdata", "stdout.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if string(got) != string(want) {
		t.Errorf("stdout differs from %s\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
