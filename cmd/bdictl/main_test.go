package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// runAsBdictl makes the test binary act as bdictl when the golden test
// re-executes it, so every subcommand runs through main exactly as shipped.
const runAsBdictl = "BDICTL_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsBdictl) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestOfflineCommandsGolden pins the stdout of every offline subcommand,
// with and without -evolved, byte for byte.
func TestOfflineCommandsGolden(t *testing.T) {
	var cases [][]string
	for _, cmd := range []string{"demo", "stats", "concepts", "sources", "rewrite", "query", "dump", "changes"} {
		cases = append(cases, []string{cmd}, []string{cmd, "-evolved"})
	}
	cases = append(cases, []string{"releases", "-file", filepath.Join("testdata", "release_w5.json")})
	for _, args := range cases {
		name := strings.Join(args, "_")
		name = strings.NewReplacer("-", "", string(filepath.Separator), "_", ".json", "").Replace(name)
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], args...)
			cmd.Env = append(os.Environ(), runAsBdictl+"=1")
			var stderr strings.Builder
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("bdictl %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
			}
			path := filepath.Join("testdata", "golden", name+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
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
				t.Errorf("bdictl %s: stdout differs from %s\ngot:\n%s\nwant:\n%s", strings.Join(args, " "), path, got, want)
			}
		})
	}
}
