package daemon

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

// ParseServeFlags parses quicksandd's flags, one per row of settings: a
// -config file first, then the flags the user set, in command-line
// order, each overriding its key. It fills in no defaults; New and
// Doctor do. The usage, and a malformed flag's message, go to output.
func ParseServeFlags(args []string, output io.Writer) (Config, error) {
	fs := flag.NewFlagSet("quicksandd", flag.ContinueOnError)
	fs.SetOutput(output)
	configPath := fs.String("config", "", "YAML config `file` (flat key: value; flags override)")
	defaults := Config{}.withDefaults()
	var given []func(*Config)
	for _, s := range settings {
		usage := s.usage
		if d := s.get(defaults); d != "" {
			usage += " (default " + d + ")"
		}
		fs.Func(s.flag, usage, func(v string) error {
			given = append(given, func(c *Config) { _ = s.set(c, v) }) // v is checked on the next line
			return s.set(new(Config), v)
		})
	}
	if err := fs.Parse(args); err != nil {
		return Config{}, err
	}
	if rest := fs.Args(); len(rest) != 0 {
		return Config{}, fmt.Errorf("unexpected arguments: %v", rest)
	}
	var cfg Config
	if *configPath != "" {
		var err error
		if cfg, err = ParseConfigFile(*configPath); err != nil {
			return Config{}, err
		}
	}
	for _, set := range given {
		set(&cfg)
	}
	return cfg, nil
}

// Serve runs one daemon until SIGINT or SIGTERM, then drains. The
// returned error covers startup failures and unclean shutdown (a
// journal flush that could not land). Only the first signal is caught: a
// second ends the process at once, as it ends any program that does not
// catch it, so a startup or a drain that hangs can still be cut short.
func Serve(cfg Config, logf func(format string, args ...any)) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	stop := make(chan os.Signal, 1)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case s := <-sig:
			signal.Stop(sig)
			stop <- s
		case <-done:
			signal.Stop(sig)
		}
	}()
	return serve(cfg, logf, stop)
}

// serve is Serve with the signal that ends the daemon read from stop.
func serve(cfg Config, logf func(format string, args ...any), stop <-chan os.Signal) error {
	cfg.Logf = logf
	d, err := New(cfg)
	if err != nil {
		return err
	}
	s := <-stop
	if logf != nil {
		logf("quicksandd: caught %v, draining", s)
	}
	return d.Close()
}
