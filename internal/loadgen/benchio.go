package loadgen

// Machine-readable scenario output: every scenario run and every matrix
// arm appends one Row to a BENCH_scenarios.json document carrying the
// host fingerprint. The format is documented in docs/bench.md; CI
// uploads the file as an artifact, and the checked-in copy at the
// repository root pins the chaos/perf trajectory release by release.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Check is one asserted end-state invariant of a scenario run.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Row is one scenario or matrix-arm result.
type Row struct {
	Scenario string `json:"scenario"`      // named scenario, or "matrix"
	Arm      string `json:"arm,omitempty"` // matrix arm label, e.g. "procs=4 shards=4 ingest=256"
	Stack    string `json:"stack"`         // "live", "durable", or "net"
	Seed     int64  `json:"seed"`
	Duration string `json:"duration"`

	Offered  int64 `json:"offered"`
	Accepted int64 `json:"accepted"`
	Declined int64 `json:"declined"`
	Errors   int64 `json:"errors"`

	OpsPerSec   float64 `json:"ops_per_sec"`
	P50Ns       float64 `json:"p50_ns"`
	P99Ns       float64 `json:"p99_ns"`
	P999Ns      float64 `json:"p999_ns"`
	DeclineRate float64 `json:"decline_rate"`
	Apologies   int64   `json:"apologies"`
	ApologyRate float64 `json:"apology_rate"`

	// GOMAXPROCS is the parallelism in effect while THIS row ran — a
	// matrix sweep changes it between arms, so it is per-row, not only
	// part of the document fingerprint.
	GOMAXPROCS int `json:"gomaxprocs"`
	Shards     int `json:"shards"`
	Replicas   int `json:"replicas"`

	Invariants []Check `json:"invariants,omitempty"`
	Passed     bool    `json:"passed"`
}

// FromReport seeds a Row with the driver's measurements.
func FromReport(rep *Report) Row {
	return Row{
		Offered:     rep.Offered,
		Accepted:    rep.Accepted,
		Declined:    rep.Declined,
		Errors:      rep.Errors,
		Duration:    rep.Elapsed.Round(time.Millisecond).String(),
		OpsPerSec:   rep.OpsPerSec,
		P50Ns:       rep.P50Ns,
		P99Ns:       rep.P99Ns,
		P999Ns:      rep.P999Ns,
		DeclineRate: rep.DeclineRate,
		Apologies:   rep.Apologies,
		ApologyRate: rep.ApologyRate,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
}

// Doc is the whole BENCH_scenarios.json document: a host fingerprint
// (the numbers measure this machine, not the protocol) plus result rows.
type Doc struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"` // at document creation; rows carry their own
	Results     []Row  `json:"results"`
}

// NewDoc fingerprints the host.
func NewDoc() *Doc {
	return &Doc{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
}

// AppendRows merges rows into the document at path: an existing
// parseable document keeps its rows (fingerprint refreshed), anything
// else starts fresh. Consecutive scenario invocations accumulate into
// one file instead of clobbering each other.
func AppendRows(path string, rows ...Row) error {
	doc := NewDoc()
	if buf, err := os.ReadFile(path); err == nil {
		var old Doc
		if json.Unmarshal(buf, &old) == nil {
			doc.Results = old.Results
		}
	}
	doc.Results = append(doc.Results, rows...)
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("loadgen: write %s: %w", path, err)
	}
	return nil
}
