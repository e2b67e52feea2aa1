// Scenario grading example: the chaos/traffic scenario matrix from
// internal/scenario run end to end. Every builtin scenario — steady
// traffic, a linear ramp, a flash crowd, a diurnal swing, a candidate
// error storm, a candidate latency spike, a partial dependency
// blackout, and a slow dependency restart — is executed against both a
// metric-gated and a topology-gated canary strategy on the simulated
// clock, and the outcome is graded: the engine must roll back the two
// scenarios where the candidate release is genuinely bad, and must
// promote in every ambient-trouble scenario it did not cause.
//
//	go run ./examples/scenarios
package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"contexp"
	"contexp/internal/scenario/suite"
)

func main() {
	fmt.Println("Scenario grading matrix")
	fmt.Println("=======================")
	fmt.Println()
	fmt.Printf("target: service=%s candidate=%s dependency=%s\n\n",
		suite.SuiteTarget.Service, suite.SuiteTarget.Candidate, suite.SuiteTarget.Dependency)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "SCENARIO\tKIND\tWANT\tGOT\tREQS\tFAILED\tGRADE")

	mismatches := 0
	for _, exp := range suite.Matrix() {
		for _, kind := range suite.Kinds() {
			want := exp.Want[kind]
			res, err := suite.RunScenario(exp.Spec, kind, suite.Options{})
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s/%s: %v\n", exp.Spec.Name, kind, err)
				os.Exit(1)
			}
			grade := "ok"
			if res.Status != want {
				grade = "MISMATCH"
				mismatches++
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%d\t%d\t%s\n",
				exp.Spec.Name, kind, statusWord(want), statusWord(res.Status),
				res.Requests, res.Failures, grade)
		}
	}
	w.Flush()
	fmt.Println()

	if mismatches > 0 {
		fmt.Printf("FAIL: %d graded outcome(s) did not match\n", mismatches)
		os.Exit(1)
	}
	fmt.Println("All graded outcomes match: real regressions rolled back, ambient trouble survived.")
}

func statusWord(s contexp.RunStatus) string {
	switch s {
	case contexp.StatusSucceeded:
		return "promote"
	case contexp.StatusRolledBack:
		return "rollback"
	default:
		return s.String()
	}
}
