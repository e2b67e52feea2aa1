package main

import (
	"os"
	"strings"
	"testing"
)

func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("repro %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// One row per smoke test the four retired binaries carried.
func TestRunArtifacts(t *testing.T) {
	for _, tc := range []struct {
		name      string
		args      []string
		realClock bool
		want      []string
		absent    []string
	}{
		{name: "ch2 all tables", args: []string{"ch2"},
			want: []string{"Table 2.1", "Figure 2.3", "Table 2.2", "Table 2.8", "Table 2.9"}},
		{name: "ch3 all", args: []string{"ch3", "-artifact", "all", "-budget", "300", "-runs", "1", "-ns", "10"},
			want: []string{"Table 3.1", "Figure 3.3", "Figure 3.4", "Figure 3.5", "Table 3.3", "Figure 3.6"}},
		{name: "ch3 single", args: []string{"ch3", "-artifact", "3.3", "-budget", "300", "-runs", "1"},
			want: []string{"Figure 3.3"}, absent: []string{"Figure 3.4"}},
		{name: "ch4 scaling", args: []string{"ch4", "-artifact", "4.7", "-run", "200ms"},
			want: []string{"Figures 4.7 / 4.8"}, absent: []string{"Table 4.1", "Figures 4.9"}},
		{name: "ch4 overhead", realClock: true,
			args: []string{"ch4", "-artifact", "4.6", "-requests", "100", "-service-ms", "1", "-phase", "200ms"},
			want: []string{"Table 4.1", "overhead"}},
		{name: "ch5 all", args: []string{"ch5", "-artifact", "all", "-traces", "100",
			"-sizes", "200,400", "-endpoints", "400", "-diff"},
			want: []string{"Figure 5.6", "Figure 5.8", "Figure 5.9", "Figure 5.10", "nDCG5", "topological difference"}},
		{name: "ch5 single", args: []string{"ch5", "-artifact", "5.6", "-traces", "50"},
			want: []string{"Figure 5.6"}, absent: []string{"Figure 5.9"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.realClock && testing.Short() {
				t.Skip("real HTTP measurement")
			}
			out := runOut(t, tc.args...)
			for _, want := range tc.want {
				if !strings.Contains(out, want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
			for _, absent := range tc.absent {
				if strings.Contains(out, absent) {
					t.Errorf("output has unrequested %q", absent)
				}
			}
		})
	}
}

func TestRunRejects(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"ch6"},
		{"ch3", "-budget", "nope"},
		{"ch3", "-artifact", "3.5", "-ns", "10,x"},
		{"ch3", "-artifact", "4.6"},
		{"ch4", "-requests", "many"},
		{"ch5", "-artifact", "5.9", "-sizes", "bad"},
		{"ch5", "-incremental"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("repro %s: expected an error", strings.Join(args, " "))
		}
	}
}

func TestIntList(t *testing.T) {
	l := intList{1}
	if err := l.Set(" 10, 20 ,30,"); err != nil {
		t.Fatal(err)
	}
	if len(l) != 3 || l[0] != 10 || l[2] != 30 || l.String() != "10,20,30" {
		t.Errorf("intList = %v", l)
	}
	if err := l.Set("a"); err == nil {
		t.Error("expected error")
	}
}

// The testdata/*_parent.golden files were written by the binaries this
// command replaced (fenrir-bench, study-tables), built from the commit
// before the harnesses moved into internal/repro: moving them changed
// no byte of any artefact that was deterministic to begin with.
func TestChapter3MatchesParentGolden(t *testing.T) {
	for id, args := range map[string][]string{
		"3.1": nil,
		"3.3": nil,
		"3.4": {"-budget", "300", "-runs", "2"},
		"3.6": {"-budget", "300", "-runs", "2"},
	} {
		want, err := os.ReadFile("testdata/ch3_" + id + "_parent.golden")
		if err != nil {
			t.Fatal(err)
		}
		got := runOut(t, append([]string{"ch3", "-artifact", id}, args...)...)
		if got != string(want) {
			t.Errorf("artifact %s differs from the parent's output:\n%s\nwant:\n%s", id, got, want)
		}
	}
}

// The ch5 goldens were written while the simulator still recorded into
// a second, offline span collector: reading the traces out of the live
// collector instead changed no byte of either ranking figure.
func TestChapter5MatchesParentGolden(t *testing.T) {
	for _, id := range []string{"5.6", "5.8"} {
		want, err := os.ReadFile("testdata/ch5_" + id + "_parent.golden")
		if err != nil {
			t.Fatal(err)
		}
		if got := runOut(t, "ch5", "-artifact", id); got != string(want) {
			t.Errorf("artifact %s differs from the parent's output:\n%s\nwant:\n%s", id, got, want)
		}
	}
}

// At the parent the startup/SME/corporation columns of the Chapter 2
// tables changed from run to run (Generate drew from its seeded RNG
// while ranging over maps), so only the label and the all/web/other
// columns — the first 46 bytes of a table row — can be held to the
// parent's output; ch2's own TestSameSeedSameTables pins the rest.
func TestChapter2MarginalsMatchParentGolden(t *testing.T) {
	marginals := func(s string) string {
		lines := strings.Split(s, "\n")
		for i, l := range lines {
			lines[i] = l[:min(len(l), 46)]
		}
		return strings.Join(lines, "\n")
	}
	want, err := os.ReadFile("testdata/ch2_parent.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := runOut(t, "ch2", "-seed", "1")
	if marginals(got) != marginals(string(want)) {
		t.Errorf("ch2 marginal columns differ from the parent's output:\n%s", got)
	}
	if again := runOut(t, "ch2", "-seed", "1"); again != got {
		t.Error("ch2 -seed 1 printed different tables on a second run")
	}
}
