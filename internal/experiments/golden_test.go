package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the golden files from the current code instead of
// checking against them:
//
//	go test ./internal/experiments -run TestGoldenCSV -update
var update = flag.Bool("update", false, "rewrite testdata/golden/*.csv from the current output")

// goldenConfigs is the smoke configuration of every registered
// experiment. Experiments with a CI smoke step reuse that step's flags
// (the CLI passes -scale 1 and -seed 1 unless told otherwise); the rest
// run on a shrunken gridtown.
func goldenConfigs() map[string]RunConfig {
	small := RunConfig{City: "gridtown", Cities: []string{"gridtown"}, Scale: 0.3, Pairs: 6, Seed: 1}
	cli := RunConfig{Scale: 1, Seed: 1}
	cfgs := map[string]RunConfig{
		"overload":  {Scale: 0.35, Seed: 1},
		"byzantine": {Scale: 0.3, Pairs: 6, Seed: 1},
		"federation": {Scale: 1, Seed: 1, Pairs: 2,
			FederationCities: 3, FederationTopology: "ring"},
		"datamule":   cli,
		"floodfront": cli,
		"parity":     cli,
	}
	for _, e := range Registry() {
		if _, ok := cfgs[e.Name()]; !ok {
			cfgs[e.Name()] = small
		}
	}
	return cfgs
}

// TestGoldenCSV is the behaviour lock: every registered experiment's CSV
// at its smoke configuration must match testdata/golden/<name>.csv byte
// for byte. A refactor that claims to change nothing proves it here.
func TestGoldenCSV(t *testing.T) {
	cfgs := goldenConfigs()
	for _, e := range Registry() {
		t.Run(e.Name(), func(t *testing.T) {
			path := filepath.Join("testdata", "golden", e.Name()+".csv")
			res, err := e.Run(cfgs[e.Name()])
			if err != nil {
				t.Fatal(err)
			}
			got := res.CSV()
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no golden file for registered experiment %q (run with -update): %v", e.Name(), err)
			}
			if got != string(want) {
				t.Errorf("%s CSV differs from %s:\n--- got ---\n%s\n--- want ---\n%s", e.Name(), path, got, want)
			}
		})
	}
}
