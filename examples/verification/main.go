// Verification example: static conflict detection across experiments —
// the paper's Section 1.6.4 future-work direction ("identify upfront
// whether a defined experiment could negatively interfere with other
// planned or currently running experiments"), implemented as
// contexp.Verify and the engine's LaunchVerified.
//
//	go run ./examples/verification
package main

import (
	"fmt"
	"os"
	"time"

	"contexp"
)

const checkoutStrategy = `
strategy "checkout-canary" {
    service   = "checkout"
    baseline  = "v1"
    candidate = "v2"
    phase "canary" {
        practice = canary
        traffic  = 10%
        duration = 10m
        check "latency" { metric = response_time  aggregate = p95  max = 200  interval = 30s }
        on success -> promote
    }
}
`

const conflictingStrategy = `
strategy "checkout-redesign-ab" {
    service   = "checkout"
    baseline  = "v1"
    candidate = "v3"
    phase "ab" {
        practice = ab-test
        traffic  = 50%
        duration = 1h
        check "conversion" { metric = conversion  aggregate = mean  min = 0.02  interval = 5m }
        on success -> promote
    }
}
`

const groupClashStrategy = `
strategy "search-beta" {
    service   = "search"
    baseline  = "v1"
    candidate = "v2"
    phase "beta" {
        practice = canary
        traffic  = 0%
        groups   = beta
        duration = 30m
        check "latency" { metric = response_time  aggregate = p95  max = 300  interval = 1m }
        on success -> promote
    }
}
`

const independentStrategy = `
strategy "cart-canary" {
    service   = "cart"
    baseline  = "v1"
    candidate = "v2"
    phase "canary" {
        practice = canary
        traffic  = 5%
        duration = 10m
        check "latency" { metric = response_time  aggregate = p95  max = 150  interval = 30s }
        on success -> promote
    }
}
`

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "verification:", err)
		os.Exit(1)
	}
}

func run() error {
	parse := func(src string) *contexp.Strategy {
		s, err := contexp.ParseStrategy(src)
		if err != nil {
			panic(err)
		}
		return s
	}
	checkout := parse(checkoutStrategy)
	redesign := parse(conflictingStrategy)
	searchBeta := parse(groupClashStrategy)
	cart := parse(independentStrategy)

	// Add a beta-group phase to the checkout canary so the group clash
	// with search-beta is visible.
	checkout.Phases[0].Traffic.Groups = append(checkout.Phases[0].Traffic.Groups, "beta")

	fmt.Println("static verification of the planned experiment portfolio:")
	conflicts, err := contexp.Verify([]*contexp.Strategy{checkout, redesign, searchBeta, cart})
	if err != nil {
		return err
	}
	if len(conflicts) == 0 {
		fmt.Println("  no conflicts")
	}
	for _, c := range conflicts {
		fmt.Printf("  ! %s\n", c)
	}

	// At launch time the engine enforces the same rules against the
	// live set.
	table := contexp.NewRoutingTable()
	engine, err := contexp.NewEngine(contexp.EngineConfig{
		Clock: contexp.NewSimClock(time.Date(2017, 12, 11, 9, 0, 0, 0, time.UTC)),
		Table: table,
		Store: contexp.NewMetricStore(),
	})
	if err != nil {
		return err
	}
	fmt.Println("\nlaunching with verification:")
	for _, s := range []*contexp.Strategy{checkout, redesign, cart} {
		_, cs, err := engine.LaunchVerified(s)
		switch {
		case err == nil:
			fmt.Printf("  launched  %q\n", s.Name)
		case len(cs) > 0:
			fmt.Printf("  refused   %q: %s\n", s.Name, cs[0])
		default:
			return err
		}
	}
	return nil
}
