package main

import (
	"fmt"
	"runtime"
)

// host is the fingerprint printed with every run: live numbers measure
// this machine, not the protocol.
type host struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	DataFS     string `json:"data_fs"` // filesystem under the durable stores
}

func fingerprint(dataDir string) host {
	return host{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     kernelRelease(),
		DataFS:     fsType(dataDir),
	}
}

func (h host) print() {
	fmt.Printf("host: %s, nproc %d, GOMAXPROCS %d, kernel %s, data dir on %s\n",
		h.GoVersion, h.NumCPU, h.GOMAXPROCS, h.Kernel, h.DataFS)
	if h.DataFS == "tmpfs" {
		fmt.Println("WARNING: the data dir is on tmpfs, where fsync costs nothing; the durable workloads' numbers are not a disk's")
	}
	if h.NumCPU < workers {
		fmt.Printf("WARNING: %d workers on %d CPU: latencies include time spent waiting for a core\n", workers, h.NumCPU)
	}
}
