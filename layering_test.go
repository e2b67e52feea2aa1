package contexp_test

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"io"
	"maps"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// listedPackage is the slice of `go list -json` output the layering
// rules read.
type listedPackage struct {
	ImportPath   string
	Imports      []string // of non-test files
	TestImports  []string
	XTestImports []string
	Deps         []string // transitive closure of Imports
}

func goListAll(t *testing.T) map[string]listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.String())
	}
	pkgs := make(map[string]listedPackage)
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatalf("decoding go list output: %v", err)
		}
		pkgs[p.ImportPath] = p
	}
}

// under reports whether pkg is one of roots or inside one of them.
func under(pkg string, roots ...string) bool {
	for _, root := range roots {
		if pkg == root || strings.HasPrefix(pkg, root+"/") {
			return true
		}
	}
	return false
}

// closures is each binary's import closure within contexp/internal,
// exactly as `go list -deps` reports it. A new edge into a binary, or a
// lost one, is a reviewed diff of this table.
var closures = map[string][]string{
	"contexp/cmd/contexpd": {"bifrost", "clock", "expmodel", "fleet", "health", "journal",
		"metrics", "router", "server", "stats", "tenancy", "topology", "tracing", "wire"},
	"contexp/cmd/contexp-agent": {"agent", "expmodel", "metrics", "router", "stats", "tracing", "wire"},
	"contexp/cmd/expctl": {"bifrost", "clock", "expmodel", "health", "journal", "metrics",
		"router", "stats", "tenancy", "topology", "tracing"},
	"contexp/cmd/contexp-demo": {"bifrost", "clock", "demo", "expmodel", "fleet", "health", "journal",
		"loadgen", "metrics", "microsim", "router", "scenario", "server", "stats", "tenancy",
		"topology", "tracing", "traffic", "wire"},
	"contexp/cmd/repro": {"bifrost", "clock", "expmodel", "fenrir", "health", "journal", "metrics",
		"microsim", "repro/ch2", "repro/ch3", "repro/ch4", "repro/ch5", "router", "stats",
		"tenancy", "topology", "tracing", "traffic"},
	"contexp/cmd/benchgate": {},
	"contexp/benchmark": {"agent", "bifrost", "clock", "expmodel", "fleet", "health", "journal",
		"metrics", "router", "server", "stats", "tenancy", "topology", "tracing", "wire"},
}

// TestImportDAG holds the layering README.md draws ("Layering"):
// production packages host neither the paper's evaluation nor the
// simulators it runs on, and each binary links a reviewed list.
func TestImportDAG(t *testing.T) {
	const (
		httptest = "net/http/httptest"
		microsim = "contexp/internal/microsim"
		loadgen  = "contexp/internal/loadgen"
		scenario = "contexp/internal/scenario"
		demo     = "contexp/internal/demo"
		repro    = "contexp/internal/repro"
		cmdRepro = "contexp/cmd/repro"
		examples = "contexp/examples"
	)
	pkgs := goListAll(t)
	simulation := func(pkg string) bool {
		return pkg == httptest || pkg == microsim || pkg == loadgen
	}

	for path, p := range pkgs {
		if !under(path, "contexp") {
			continue
		}
		// (a) Only the evaluation, the demo, the scenario lab and the
		// examples build on the simulators or on httptest.
		if !under(path, repro, cmdRepro, demo, scenario, examples, microsim, loadgen) {
			for _, imp := range p.Imports {
				if simulation(imp) {
					t.Errorf("%s imports %s outside a test: only %s, %s, %s, %s and %s may",
						path, imp, repro, cmdRepro, demo, scenario, examples)
				}
			}
		}
		// (c) Nothing but cmd/repro depends on the evaluation tree, not
		// even from a test.
		if !under(path, repro, cmdRepro) {
			for _, imp := range slices.Concat(p.Imports, p.TestImports, p.XTestImports) {
				if under(imp, repro) {
					t.Errorf("%s imports %s: only %s may", path, imp, cmdRepro)
				}
			}
		}
		if _, ok := closures[path]; under(path, "contexp/cmd") && !ok {
			t.Errorf("%s has no reviewed closure: add it to closures", path)
		}
	}

	// (b) Every binary links exactly its reviewed closure.
	for main, want := range closures {
		p, ok := pkgs[main]
		if !ok || len(p.Deps) == 0 {
			t.Errorf("go list reported no dependencies for %s", main)
			continue
		}
		got := make(map[string]bool)
		for _, dep := range p.Deps {
			if under(dep, "contexp/internal") {
				got[strings.TrimPrefix(dep, "contexp/internal/")] = true
			}
		}
		for _, pkg := range want {
			if !got[pkg] {
				t.Errorf("%s no longer links contexp/internal/%s: drop it from its closure", main, pkg)
			}
			delete(got, pkg)
		}
		for _, pkg := range slices.Sorted(maps.Keys(got)) {
			t.Errorf("%s links contexp/internal/%s, which its closure does not list", main, pkg)
		}
	}
	// (d) The data plane forwards through its own code: one
	// httputil.ReverseProxy per version is what router.Proxy replaced.
	router := pkgs["contexp/internal/router"]
	if len(router.Imports) == 0 {
		t.Fatal("go list reported no imports for contexp/internal/router")
	}
	if slices.Contains(router.Imports, "net/http/httputil") {
		t.Error("contexp/internal/router imports net/http/httputil")
	}
	// (e) Planning and execution are separate tools: the live scheduler
	// projects with its own launch rule, so the engine package imports
	// neither the offline planner nor its traffic profiles, and the
	// benchmark (which drives no planner) links neither.
	const (
		fenrir  = "contexp/internal/fenrir"
		traffic = "contexp/internal/traffic"
	)
	bifrost := pkgs["contexp/internal/bifrost"]
	if len(bifrost.Imports) == 0 {
		t.Fatal("go list reported no imports for contexp/internal/bifrost")
	}
	for _, imp := range bifrost.Imports {
		if imp == fenrir || imp == traffic {
			t.Errorf("contexp/internal/bifrost imports %s", imp)
		}
	}
	for _, dep := range pkgs["contexp/benchmark"].Deps {
		if dep == fenrir || dep == traffic {
			t.Errorf("contexp/benchmark links %s", dep)
		}
	}
}

// TestStateMachineImports holds internal/bifrost/machine.go — the
// strategy state machine the run loop, crash recovery and the report all
// fold records through — to the standard library and the experiment
// model. Reading a strategy must not need a clock, a journal, a router or
// a store: that is what lets recovery and the report replay a trail with
// the same code the live loop runs, and what a clock-free checker would
// drive. The rule is per file, so go list cannot state it; the file's
// own import block is parsed instead.
func TestStateMachineImports(t *testing.T) {
	const path = "internal/bifrost/machine.go"
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Imports) == 0 {
		t.Fatalf("%s: parsed no imports", path)
	}
	for _, spec := range f.Imports {
		imp, err := strconv.Unquote(spec.Path.Value)
		if err != nil {
			t.Fatal(err)
		}
		// Standard-library paths have no dot in their first element.
		std := !strings.Contains(strings.Split(imp, "/")[0], ".") && !under(imp, "contexp")
		if !std && imp != "contexp/internal/expmodel" {
			t.Errorf("%s imports %s: only the standard library and contexp/internal/expmodel may be", path, imp)
		}
	}
}
