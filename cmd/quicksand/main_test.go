package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/client"
)

// cannedDaemon answers /healthz, /v1/state and /v1/apologies with fixed
// bodies, as a quicksandd in the given health would.
func cannedDaemon(t *testing.T, h client.Health) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	reply := func(path string, body any) {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(body)
		})
	}
	reply("/healthz", h)
	reply("/v1/state", client.StateResponse{Node: h.Node, Shards: h.Shards, Keys: map[string]int64{"a": 1, "b": 2}})
	reply("/v1/apologies", client.ApologiesResponse{Total: 3})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// hangingDaemon accepts a connection and never answers until the
// caller gives up.
func hangingDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	t.Cleanup(srv.Close)
	return srv
}

// psRows runs `quicksand ps` and maps each daemon's address to the
// fields of its row, and to the indented lines under it.
func psRows(t *testing.T, args ...string) (code int, rows map[string][]string, under map[string][]string, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(append([]string{"ps"}, args...), &out, &errOut)
	rows, under = map[string][]string{}, map[string][]string{}
	var last string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		if strings.HasPrefix(line, "  ") {
			under[last] = append(under[last], strings.TrimSpace(line))
			continue
		}
		f := strings.Fields(line)
		last, rows[f[0]] = f[0], f
	}
	return code, rows, under, errOut.String()
}

func TestPS(t *testing.T) {
	t.Run("healthy daemon is up", func(t *testing.T) {
		up := cannedDaemon(t, client.Health{OK: true, Node: 1, Shards: 2, Replicas: 3})
		code, rows, under, _ := psRows(t, "-addr", up.URL)
		if want := []string{up.URL, "up", "1", "2", "3", "2", "3"}; code != 0 || strings.Join(rows[up.URL], " ") != strings.Join(want, " ") {
			t.Fatalf("exit %d, row %q; want 0, %q", code, rows[up.URL], want)
		}
		if len(under[up.URL]) != 0 {
			t.Fatalf("healthy daemon has lines under its row: %q", under[up.URL])
		}
	})
	t.Run("degraded daemon is not up", func(t *testing.T) {
		reasons := []string{"shard 0: r0: disk full", "shard 2: r0: disk full"}
		deg := cannedDaemon(t, client.Health{Node: 0, Shards: 3, Replicas: 2, Degraded: reasons})
		code, rows, under, _ := psRows(t, "-addr", deg.URL)
		if code != 0 || len(rows[deg.URL]) < 2 || rows[deg.URL][1] != "degraded" {
			t.Fatalf("exit %d, row %q; want the STATE column to read degraded", code, rows[deg.URL])
		}
		if strings.Join(under[deg.URL], "|") != strings.Join(reasons, "|") {
			t.Fatalf("lines under the row %q; want each reason, %q", under[deg.URL], reasons)
		}
	})
	t.Run("hanging daemon leaves the next its own timeout", func(t *testing.T) {
		hang, up := hangingDaemon(t), cannedDaemon(t, client.Health{OK: true, Shards: 1, Replicas: 2})
		code, rows, _, stderr := psRows(t, "-timeout", "200ms", "-addr", hang.URL+","+up.URL)
		if len(rows[hang.URL]) < 2 || rows[hang.URL][1] != "down" {
			t.Errorf("hanging daemon's row %q; want down", rows[hang.URL])
		}
		if len(rows[up.URL]) < 2 || rows[up.URL][1] != "up" {
			t.Errorf("second daemon's row %q; want up", rows[up.URL])
		}
		if code != 1 || !strings.Contains(stderr, "1 daemon(s) unreachable") {
			t.Errorf("exit %d, stderr %q; want 1 and one unreachable", code, stderr)
		}
	})
}

// TestDoctorFlagsWriteToStderr: doctor's usage, and with a malformed flag
// its message and the usage, go to run's stderr, not the process's, and
// nothing to stdout.
func TestDoctorFlagsWriteToStderr(t *testing.T) {
	for _, row := range []struct {
		args []string
		code int
		want []string
	}{
		{[]string{"doctor", "-h"}, 2, []string{"-peers"}},
		{[]string{"doctor", "-bogus"}, 1, []string{"flag provided but not defined: -bogus", "-peers"}},
	} {
		var out, errOut bytes.Buffer
		code := run(row.args, &out, &errOut)
		for _, want := range row.want {
			if code != row.code || out.Len() != 0 || !strings.Contains(errOut.String(), want) {
				t.Errorf("run(%q) = %d, stdout %q, stderr %q; want %d and %q on stderr", row.args, code, out.String(), errOut.String(), row.code, want)
			}
		}
	}
}

func TestRunRejectsUnknownCommands(t *testing.T) {
	for _, args := range [][]string{nil, {"serve", "-config", "node0.yaml"}, {"nope"}} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 || !strings.Contains(errOut.String(), "commands:") {
			t.Errorf("run(%q) = %d, stdout %q, stderr %q; want 2 and the usage on stderr", args, code, out.String(), errOut.String())
		}
	}
}
