// Package testenv holds the helpers several packages' tests share.
package testenv

import (
	"runtime/debug"
	"testing"
)

// SkipUnderRace skips an allocation pin in a -race build, where sync.Pool
// drops a quarter of its Puts on purpose and the counts mean nothing.
func SkipUnderRace(t testing.TB) {
	t.Helper()
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			t.Skip("allocation counts are pinned without -race")
		}
	}
}
