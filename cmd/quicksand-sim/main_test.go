package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScenariosMatchGolden runs each scenario at its defaults — and the
// cart with churn and with the state-merge strawman — and compares the
// report byte for byte with testdata/NAME.golden. Every run is
// deterministic per seed, so a changed number is a diff the change must
// explain.
func TestScenariosMatchGolden(t *testing.T) {
	for _, name := range []string{"tandem", "logship", "bank", "cart", "cart-churn", "cart-statemerge"} {
		t.Run(name, func(t *testing.T) {
			scenario, variant, _ := strings.Cut(name, "-")
			args := []string{"-scenario", scenario}
			if variant != "" {
				args = append(args, "-"+variant)
			}
			var got bytes.Buffer
			if err := run(&got, args); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("quicksand-sim %s differs from testdata/%s.golden:\n got %q\nwant %q", strings.Join(args, " "), name, got.String(), want)
			}
		})
	}
}
