package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestRunSmoke drives the example's full scenario and compares what it
// prints, byte for byte, with testdata/run.golden: the walkthrough runs on
// the deterministic simulator, so a panic, a failed submit or any changed
// line of its story fails the test.
func TestRunSmoke(t *testing.T) {
	var got bytes.Buffer
	run(&got)
	want, err := os.ReadFile(filepath.Join("testdata", "run.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("output differs from testdata/run.golden:\n got %q\nwant %q", got.String(), want)
	}
}
