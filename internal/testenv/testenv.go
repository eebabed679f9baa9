// Package testenv holds the helpers several packages' tests share.
package testenv

import (
	"runtime/debug"
	"testing"
)

// SkipUnderRace skips a test in a -race build, so that it runs once, in
// the race-free pass: an allocation pin, because there sync.Pool drops a
// quarter of its Puts on purpose and the counts mean nothing, or a
// deterministic comparison the -race pass would only repeat slower.
func SkipUnderRace(t testing.TB) {
	t.Helper()
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			t.Skip("runs in the race-free pass only")
		}
	}
}
