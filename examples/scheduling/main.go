// Scheduling example: Fenrir plans 15 continuous experiments against a
// two-week production traffic profile, then reevaluates the schedule
// mid-execution after two experiments are canceled and three new ones
// arrive — the uncertainty-driven workflow of Chapter 3.
//
//	go run ./examples/scheduling
package main

import (
	"fmt"
	"os"
	"time"

	"contexp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "scheduling:", err)
		os.Exit(1)
	}
}

func run() error {
	start := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC) // a Monday
	profile, err := contexp.GenerateTraffic(start, 14)
	if err != nil {
		return err
	}
	fmt.Println("traffic profile (14 days, hourly):")
	fmt.Println("  " + profile.Sparkline(112))

	experiments, err := contexp.GenerateExperiments(contexp.ExperimentGeneratorConfig{
		N: 15, Class: contexp.SamplesMedium, Seed: 1, Horizon: profile.NumSlots(),
	})
	if err != nil {
		return err
	}
	problem := &contexp.SchedulingProblem{
		Experiments: experiments,
		Profile:     profile,
		Capacity:    0.8, // keep >= 20% of users out of all experiments
	}
	if err := problem.Validate(); err != nil {
		return err
	}

	ga := &contexp.GeneticAlgorithm{}
	schedule, stats := ga.Optimize(problem, 4000, 1, nil)
	fmt.Printf("\nGA: %d fitness evaluations in %v, fitness %.1f%% of max, valid=%v\n",
		stats.Evaluations, stats.Elapsed.Round(time.Millisecond),
		100*stats.BestFitness/problem.MaxFitness(), problem.Valid(schedule))
	fmt.Println(problem.FormatSchedule(schedule))
	fmt.Println(problem.Gantt(schedule, 96))
	peak, at := problem.PeakUtilization(schedule)
	fmt.Printf("peak traffic allocation: %.0f%% of users at slot %d (capacity %.0f%%)\n\n",
		peak*100, at, problem.Capacity*100)

	// A week in: exp-03 and exp-07 were canceled, three new experiments
	// arrived. Running experiments are frozen; the rest is re-planned.
	now := 7 * 24
	added, err := contexp.GenerateExperiments(contexp.ExperimentGeneratorConfig{
		N: 3, Class: contexp.SamplesMedium, Seed: 99, Horizon: profile.NumSlots(),
	})
	if err != nil {
		return err
	}
	for i := range added {
		added[i].ID = fmt.Sprintf("new-%02d", i+1)
		added[i].EarliestStart = now
	}
	reeval, err := contexp.Reevaluate(problem, schedule, contexp.ReevalInput{
		Now:      now,
		Canceled: []string{"exp-03", "exp-07"},
		Added:    added,
	})
	if err != nil {
		return err
	}
	fmt.Printf("reevaluation at slot %d (day 7): %d finished, %d canceled, %d frozen, %d added\n",
		now, len(reeval.Finished), len(reeval.Dropped), contexp.FrozenCount(reeval.Seed), len(added))

	schedule2, stats2 := ga.Optimize(reeval.Problem, 4000, 2, reeval.Seed)
	fmt.Printf("re-optimized: fitness %.1f%% of max, valid=%v\n",
		100*stats2.BestFitness/reeval.Problem.MaxFitness(), reeval.Problem.Valid(schedule2))
	fmt.Println(reeval.Problem.FormatSchedule(schedule2))
	return nil
}
