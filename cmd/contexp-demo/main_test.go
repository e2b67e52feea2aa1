package main

import (
	"strings"
	"testing"

	"contexp/internal/scenario"
)

func TestParseFlags(t *testing.T) {
	t.Run("defaults", func(t *testing.T) {
		opt, err := parseFlags(nil)
		if err != nil {
			t.Fatal(err)
		}
		want := options{addr: ":8080", seed: 1, enact: true}
		if *opt != want {
			t.Errorf("defaults = %+v, want %+v", *opt, want)
		}
	})

	t.Run("every flag", func(t *testing.T) {
		opt, err := parseFlags([]string{
			"--addr", "127.0.0.1:9999", "--seed", "9", "--enact=false",
			"--faults", "error-storm", "--wire",
		})
		if err != nil {
			t.Fatal(err)
		}
		want := options{addr: "127.0.0.1:9999", seed: 9, faults: "error-storm", wire: true}
		if *opt != want {
			t.Errorf("opt = %+v, want %+v", *opt, want)
		}
	})

	t.Run("unknown flag", func(t *testing.T) {
		// Neither the daemon's production options nor the old --demo-*
		// spellings exist here.
		for _, arg := range []string{"--wibble", "--data-dir=state", "--auth-tokens=a=b", "--demo", "--demo-seed=2"} {
			if _, err := parseFlags([]string{arg}); err == nil {
				t.Errorf("expected error for unknown flag %s", arg)
			}
		}
	})

	t.Run("positional arguments rejected", func(t *testing.T) {
		_, err := parseFlags([]string{"serve"})
		if err == nil || !strings.Contains(err.Error(), "unexpected arguments") {
			t.Errorf("err = %v", err)
		}
	})
}

// strAddr is a net.Addr with a fixed string form.
type strAddr string

func (a strAddr) Network() string { return "tcp" }
func (a strAddr) String() string  { return string(a) }

func TestSelfURL(t *testing.T) {
	for addr, want := range map[string]string{
		":8080":      "http://127.0.0.1:8080",
		"[::]:8080":  "http://127.0.0.1:8080",
		"0.0.0.0:1":  "http://127.0.0.1:1",
		"10.0.0.1:2": "http://10.0.0.1:2",
	} {
		if got := selfURL(strAddr(addr)); got != want {
			t.Errorf("selfURL(%q) = %q, want %q", addr, got, want)
		}
	}
}

func TestDemoScenario(t *testing.T) {
	names := scenario.Names()
	if len(names) == 0 {
		t.Fatal("no builtin scenarios")
	}
	for _, name := range names {
		if _, err := demoScenario(name, 7); err != nil {
			t.Errorf("demoScenario(%q): %v", name, err)
		}
	}
	sc, err := demoScenario(scenario.ScenarioErrorStorm, 7)
	if err != nil || sc.Seed != 7 || len(sc.Faults) == 0 {
		t.Errorf("error-storm = %+v, %v; want seed 7 and its faults", sc, err)
	}
	if _, err := demoScenario("no-such-scenario", 1); err == nil {
		t.Error("unknown scenario resolved")
	}
}
