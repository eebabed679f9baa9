//go:build !linux

package main

import "time"

// The benchmark's process accounting is Linux-only; elsewhere it builds
// and runs but reports these as zero or unknown.

func cpuTime() time.Duration { return 0 }
func peakRSSMB() float64     { return 0 }
func kernelRelease() string  { return "unknown" }
func fsType(string) string   { return "unknown" }
