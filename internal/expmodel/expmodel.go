// Package expmodel holds the shared vocabulary of the conceptual
// framework for continuous experimentation (Section 1.2.1): the
// experimentation practices identified by the empirical study and user
// groups. Fenrir (planning), Bifrost (execution), and the health
// assessment (analysis) all speak in these terms.
package expmodel

import (
	"fmt"
	"strings"
)

// Practice is a continuous-experimentation practice (Section 2.2.1).
type Practice int

// The practices surveyed by Chapter 2 and enacted by Bifrost.
const (
	// PracticeCanary releases a new version to a small random subset of
	// users while the rest stay on the stable version.
	PracticeCanary Practice = iota + 1
	// PracticeDarkLaunch duplicates production traffic to the new
	// version without exposing responses to users.
	PracticeDarkLaunch
	// PracticeABTest splits users between variants of equal footing and
	// compares business metrics.
	PracticeABTest
	// PracticeGradualRollout step-wise increases the share of users on
	// the new version until full rollout.
	PracticeGradualRollout
	// PracticeBlueGreen keeps two complete deployments and atomically
	// switches production traffic between them.
	PracticeBlueGreen
)

var practiceNames = map[Practice]string{
	PracticeCanary:         "canary",
	PracticeDarkLaunch:     "dark-launch",
	PracticeABTest:         "ab-test",
	PracticeGradualRollout: "gradual-rollout",
	PracticeBlueGreen:      "blue-green",
}

// String returns the canonical DSL spelling of the practice.
func (p Practice) String() string {
	if s, ok := practiceNames[p]; ok {
		return s
	}
	return fmt.Sprintf("practice(%d)", int(p))
}

// ParsePractice converts a DSL spelling into a Practice.
func ParsePractice(s string) (Practice, error) {
	norm := strings.ToLower(strings.TrimSpace(s))
	norm = strings.ReplaceAll(norm, "_", "-")
	for p, name := range practiceNames {
		if norm == name {
			return p, nil
		}
	}
	// Accept a few aliases seen in the paper's prose.
	switch norm {
	case "dark", "shadow", "shadow-launch":
		return PracticeDarkLaunch, nil
	case "ab", "a/b", "a/b-test":
		return PracticeABTest, nil
	case "gradual", "rollout":
		return PracticeGradualRollout, nil
	}
	return 0, fmt.Errorf("expmodel: unknown practice %q", s)
}

// UserGroup identifies a segment of the user population (e.g., a region,
// a device class, a loyalty tier). Fenrir's group-coverage objective and
// overlap constraints, and Bifrost's routing filters, operate on these.
type UserGroup string
