package daemon

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseConfig: ParseConfig never panics, and a config it accepts,
// rendered one "key: value" line per setting through each row's get,
// parses back to the same Config.
func FuzzParseConfig(f *testing.F) {
	for _, seed := range []string{
		"node: 0\nreplicas: 2\npeers: 0=127.0.0.1:7000, 1=127.0.0.1:7001\n",
		"# a comment\nhttp_listen: 127.0.0.1:8080 # trailing\ngossip_every: 1h30m\n",
		"peer_token: abc#123\napi_token:#x\ndata_dir: \v#y\n",
		"trace_sample: -1\ncall_timeout: -5ms\nshards: +4\n",
		"peers: 2=a=b,2=,\t3 = c \n",
		"node 0\n",
		"shed_backlog: 0.9\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		cfg, err := ParseConfig(text)
		if err != nil {
			return
		}
		var out strings.Builder
		for _, s := range settings {
			out.WriteString(s.key + ": " + s.get(cfg) + "\n")
		}
		again, err := ParseConfig(out.String())
		if err != nil {
			t.Fatalf("%q parsed, but its rendering %q does not: %v", text, out.String(), err)
		}
		if len(cfg.Peers) == 0 && len(again.Peers) == 0 {
			cfg.Peers, again.Peers = nil, nil
		}
		if !reflect.DeepEqual(cfg, again) {
			t.Fatalf("%q parsed to %+v; its rendering %q to %+v", text, cfg, out.String(), again)
		}
	})
}
