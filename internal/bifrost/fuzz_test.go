package bifrost

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseStrategy feeds arbitrary source through the DSL parser: it
// must never panic, and anything it accepts must round-trip — the
// canonical form (WriteDSL) reparses to the same canonical form, the
// property expctl fmt relies on, to an equal strategy, field by field,
// and to the same scheduler footprint.
func FuzzParseStrategy(f *testing.F) {
	f.Add(`
strategy "recommendation-rollout" {
    service   = "recommendation"
    baseline  = "v1"
    candidate = "v2"

    phase "canary" {
        practice    = canary
        traffic     = 5%
        duration    = 10m
        min-samples = 200
        check "latency" {
            metric    = response_time
            aggregate = p95
            max       = 250
            interval  = 10s
        }
        check "regression" {
            metric    = response_time
            aggregate = mean
            scope     = relative
            max       = 1.25
            interval  = 15s
        }
        on success      -> phase "rollout"
        on failure      -> rollback
        on inconclusive -> retry
        max-retries = 2
    }

    phase "rollout" {
        practice      = gradual-rollout
        steps         = 25%, 50%, 75%, 100%
        step-duration = 5m
        check "latency" {
            metric    = response_time
            aggregate = p95
            max       = 250
        }
        on success -> promote
        on failure -> rollback
    }
}
`)
	f.Add(`
strategy "dark" {
    service   = "svc"
    baseline  = "v1"
    candidate = "v2"
    phase "mirror" {
        practice = dark-launch
        mirror   = true
        duration = 1h
        groups   = beta, power
    }
}
`)
	f.Add(`strategy "x" { service = "s" baseline = "a" candidate = "b"
phase "p" { practice = canary traffic = 10% duration = 1s } }`)
	f.Add(`
strategy "topo" {
    service   = "rec"
    baseline  = "v1"
    candidate = "v2"
    phase "canary" {
        practice = canary
        traffic  = 10%
        duration = 10m
        check "structure" {
            kind       = topology
            heuristic  = "hybrid-0.5"
            max-ranked-changes = 2
            min-traces = 25
            allow      = updated-callee-version, updated-caller-version, updated-version
            interval   = 30s
            failures   = 2
        }
        on failure -> rollback
    }
}
`)
	f.Add(`strategy "t" { service = "s" baseline = "a" candidate = "b"
phase "p" { practice = canary traffic = 10% duration = 1s
check "c" { kind = topology } } }`)
	f.Add(`strategy "t" { service = "s" baseline = "a" candidate = "b"
phase "p" { practice = canary traffic = 10% duration = 1s
check "c" { kind = topology heuristic = "nope" } } }`)
	f.Add(`strategy "t" { service = "s" baseline = "a" candidate = "b"
phase "p" { practice = canary traffic = 10% duration = 1s
check "c" { kind = topology scope = relative } } }`)
	f.Add(`strategy "t" { service = "s" baseline = "a" candidate = "b"
phase "p" { practice = canary traffic = 10% duration = 1s
check "c" { kind = topology allow = remove-call allow = remove-call } } }`)
	f.Add(`strategy "t" { service = "s" baseline = "a" candidate = "b"
phase "p" { practice = canary traffic = 10% duration = 1s
check "c" { heuristic = "subtree-size" metric = m aggregate = mean max = 1 } } }`)
	// Attributes the phase's practice does not read: each used to validate
	// and then run, journal or reserve differently from what was written.
	f.Add(`strategy "x" { service = "s" baseline = "a" candidate = "b"
phase "p" { practice = canary traffic = 10% steps = 20%, 50% duration = 1m } }`)
	f.Add(`strategy "x" { service = "s" baseline = "a" candidate = "b"
phase "p" { practice = gradual-rollout traffic = 90% steps = 10%, 20% step-duration = 1m } }`)
	f.Add(`strategy "x" { service = "s" baseline = "a" candidate = "b"
phase "p" { practice = dark-launch traffic = 10% duration = 1m } }`)
	// Values that are not one identifier, and a name holding an escape:
	// their canonical form used to fail to reparse, or to reparse to a
	// different name.
	f.Add(`strategy "x" { service = "s" baseline = "a" candidate = "b"
phase "p" { practice = canary traffic = 10% duration = 1s
check "c" { metric = "5xx_errors" aggregate = rate max = 1 } } }`)
	f.Add(`strategy "x" { service = "s" baseline = "a" candidate = "b"
phase "p" { practice = canary traffic = 10% duration = 1s groups = "beta users", staff } }`)
	f.Add(`strategy "a\\b" { service = "s" baseline = "a" candidate = "b"
phase "p" { practice = canary traffic = 10% duration = 1s } }`)
	f.Add(`strategy "x" {`)
	f.Add(`# comment only`)
	f.Add(`strategy "" {}`)
	f.Add("strategy \"x\" {\x00}")

	f.Fuzz(func(t *testing.T, src string) {
		s, err := ParseStrategy(src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		canonical := WriteDSL(s)
		s2, err := ParseStrategy(canonical)
		if err != nil {
			t.Fatalf("canonical form does not reparse: %v\ninput:\n%s\ncanonical:\n%s",
				err, src, canonical)
		}
		if again := WriteDSL(s2); again != canonical {
			t.Fatalf("canonical form is not a fixed point:\nfirst:\n%s\nsecond:\n%s",
				canonical, again)
		}
		if !reflect.DeepEqual(s2, s) {
			t.Fatalf("round trip changed the strategy:\nbefore: %+v\nafter:  %+v\ninput:\n%s\ncanonical:\n%s",
				s, s2, src, canonical)
		}
		// What the scheduler reserves is what it reserves again after a
		// restart, which reparses the journaled canonical form.
		if peakShare(s2) != peakShare(s) || estimateDuration(s2) != estimateDuration(s) {
			t.Fatalf("round trip changed the footprint: share %v -> %v, duration %v -> %v\ninput:\n%s",
				peakShare(s), peakShare(s2), estimateDuration(s), estimateDuration(s2), src)
		}
		// The state machine rendering must not panic either.
		if sm := s.StateMachine(); !strings.Contains(sm, strconv.Quote(s.Name)) {
			t.Fatalf("state machine rendering lost the strategy name:\n%s", sm)
		}
	})
}
