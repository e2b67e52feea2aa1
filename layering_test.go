package contexp_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// listedPackage is the slice of `go list -json` output the layering
// rules read.
type listedPackage struct {
	ImportPath   string
	Dir          string
	GoFiles      []string // non-test files, relative to Dir
	Export       string   // export data file, with -export
	Imports      []string // of non-test files
	TestImports  []string
	XTestImports []string
	Deps         []string // transitive closure of Imports
}

// goListAll lists the module's packages and everything they link;
// flags are extra `go list` flags.
func goListAll(t *testing.T, flags ...string) map[string]listedPackage {
	t.Helper()
	cmd := exec.Command("go", slices.Concat([]string{"list", "-deps", "-json"}, flags, []string{"./..."})...)
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
		"metrics", "router", "server", "tenancy", "topology", "tracing", "wire"},
	"contexp/cmd/contexp-agent": {"agent", "expmodel", "metrics", "router", "tracing", "wire"},
	"contexp/cmd/expctl": {"bifrost", "clock", "expmodel", "health", "journal", "metrics",
		"router", "tenancy", "topology", "tracing"},
	"contexp/cmd/contexp-demo": {"bifrost", "clock", "demo", "expmodel", "fleet", "health", "journal",
		"loadgen", "metrics", "microsim", "router", "scenario", "server", "stats", "tenancy",
		"topology", "tracing", "wire"},
	"contexp/cmd/repro": {"bifrost", "clock", "expmodel", "fenrir", "health", "journal", "metrics",
		"microsim", "repro/ch2", "repro/ch3", "repro/ch4", "repro/ch5", "router", "stats",
		"tenancy", "topology", "tracing", "traffic"},
	"contexp/cmd/benchgate": {},
	"contexp/benchmark": {"agent", "bifrost", "clock", "expmodel", "fleet", "health", "journal",
		"metrics", "router", "server", "tenancy", "topology", "tracing", "wire"},
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
		// (a) Only the evaluation, the demo, the scenario lab, the
		// examples and the simulators themselves build on the simulators
		// or on httptest.
		if allowed := []string{repro, cmdRepro, demo, scenario, examples, microsim, loadgen}; !under(path, allowed...) {
			for _, imp := range p.Imports {
				if simulation(imp) {
					t.Errorf("%s imports %s outside a test: only %s may", path, imp, strings.Join(allowed, ", "))
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

// unsafeAllowed names, by path, the non-test files under internal/ and
// cmd/ that may import unsafe, each with its reason. An entry whose file
// no longer imports unsafe fails the rule too, so the list shrinks with
// the code.
var unsafeAllowed = map[string]string{
	"internal/metrics/cache.go": "the store's write cache finds a sample's series by its five strings' data pointers " +
		"(unsafe.StringData), so a write costs pointer compares instead of building and hashing the series key",
	"internal/wire/wire.go": "the telemetry encoders' front cache keys a string by its data pointer " +
		"(unsafe.StringData), so a cell costs a pointer compare instead of a hash of its bytes",
}

// TestUnsafeImports: unsafe does not spread. Only the files unsafeAllowed
// names import it, outside tests; the rule is per file, so each file's
// own import block is parsed.
func TestUnsafeImports(t *testing.T) {
	importers := make(map[string]bool)
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, spec := range f.Imports {
				if imp, _ := strconv.Unquote(spec.Path.Value); imp == "unsafe" {
					importers[filepath.ToSlash(path)] = true
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range slices.Sorted(maps.Keys(importers)) {
		if strings.TrimSpace(unsafeAllowed[path]) == "" {
			t.Errorf("%s imports unsafe: allow it in unsafeAllowed with a reason, or do without", path)
		}
	}
	for _, path := range slices.Sorted(maps.Keys(unsafeAllowed)) {
		if !importers[path] {
			t.Errorf("unsafeAllowed[%q]: the file does not import unsafe: drop the entry", path)
		}
	}
}

// wallClockExempt are the packages under internal/ that TestNoWallClock
// leaves to the wall clock, by path below internal/ (subpackages
// included), each with its reason. An exemption no file of its package
// uses fails the rule.
var wallClockExempt = map[string]string{
	"clock": "clock.Real is the wall clock every other package is handed",
	"repro": "chapters 4 and 5 time real work on the wall clock: what they measure is elapsed time",
	"microsim": "the HTTP backends serve real requests: they sleep their simulated service times " +
		"and stamp faults and telemetry in real time",
	"demo": "the demo paces its synthetic users to their arrival instants in real time, over real HTTP",
	"scenario/suite": "the grading suite bounds a run's drain by a wall-clock deadline and yields " +
		"while nothing is parked on the virtual clock",
	"fenrir": "each optimizer reports the wall time it took (Stats.Elapsed), which chapter 3's figures compare",
}

// wallClockSite is one function allowed to read the wall clock: the
// time functions it uses, in source order, and why.
type wallClockSite struct {
	calls  string
	reason string
}

// wallClockAllowed names, as "file:func" ("file:Type.Method" for a
// method), the functions under internal/ outside wallClockExempt that
// may use time.Now, Since, Until, After, AfterFunc, Tick, NewTicker,
// NewTimer or Sleep. calls must match what the function uses, so an
// added call fails the rule, and so does an entry whose function no
// longer uses them: the list only shrinks as sites take a clock.Clock.
var wallClockAllowed = map[string]wallClockSite{
	"internal/agent/agent.go:Agent.Stale":         {"Since", "lease expiry: the age of the last frame"},
	"internal/agent/agent.go:Agent.watchLoop":     {"After", "reconnect backoff between watch attempts"},
	"internal/agent/agent.go:Agent.watchOnce":     {"AfterFunc", "the lease timer that cuts a silent stream"},
	"internal/agent/agent.go:Agent.follow":        {"Now", "stamps the last frame the lease is measured from"},
	"internal/agent/agent.go:Agent.heartbeatLoop": {"NewTicker", "the heartbeat ticker"},
	"internal/agent/agent.go:Agent.Health":        {"Since", "the age of the last frame on the agent's /healthz"},
	"internal/agent/agent.go:Agent.handleResolve": {"Now", "stamps the edge_resolves sample"},
	"internal/bifrost/dispatch.go:Run.evalBatch": {"Now Since", "evalBusy: the wall time a check batch " +
		"costs, which /healthz and the benchmark report"},
	"internal/fleet/fleet.go:Hub.run":              {"NewTicker", "the heartbeat ticker of every watch stream"},
	"internal/fleet/fleet.go:Hub.Watch":            {"Now", "the registry's connectedAt"},
	"internal/fleet/fleet.go:Hub.Ack":              {"Now", "the registry's lastAck"},
	"internal/journal/filelog.go:FileLog.syncLoop": {"NewTicker", "the group-commit interval"},
	"internal/server/middleware.go:Server.loggingMiddleware": {"Now Since", "the request duration " +
		"in the access log"},
	"internal/server/middleware.go:Server.rateLimitMiddleware": {"Now", "the token bucket refills by elapsed time"},
	"internal/server/schedule.go:Server.handleScheduleEvents":  {"NewTicker", "SSE polling of the schedule"},
	"internal/server/server.go:New":                            {"Now", "start time: uptime and the request-id prefix"},
	"internal/server/server.go:Server.recordSamples": {"Now", "the default stamp of a sample sent " +
		"without one"},
	"internal/server/server.go:Server.status":        {"Since Since", "the status cache's TTL"},
	"internal/server/server.go:Server.buildStatus":   {"Since Now", "uptime, and the status cache's stamp"},
	"internal/server/sse.go:Server.handleRunEvents":  {"NewTicker", "SSE polling of a run's events"},
	"internal/server/tracing.go:Server.recordSpans":  {"Now", "the default stamp of a span sent without one"},
	"internal/tracing/live.go:LiveCollector.Record":  {"Now", "the last-span time a trace settles from"},
	"internal/tracing/live.go:LiveCollector.Harvest": {"Now", "the settle cutoff"},
}

// wallClockFuncs are the time package's wall-clock reads and timers.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTicker": true, "NewTimer": true, "Sleep": true}

// TestNoWallClock holds internal/ to the clock it is handed: outside
// wallClockExempt's packages, a non-test file uses time.Now, Since,
// Until, After, AfterFunc, Tick, NewTicker, NewTimer or Sleep only in a
// function wallClockAllowed names, and only the calls it names. A use is
// a reference through the file's import of "time" (a call or a func
// value); comments are not code.
func TestNoWallClock(t *testing.T) {
	found := make(map[string][]string) // "file:func" -> uses, in source order
	exemptUsed := make(map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		path = filepath.ToSlash(path)
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		timeName := ""
		for _, spec := range f.Imports {
			if imp, _ := strconv.Unquote(spec.Path.Value); imp == "time" {
				timeName = "time"
				if spec.Name != nil {
					timeName = spec.Name.Name
				}
			}
		}
		if timeName == "" {
			return nil
		}
		exempt := ""
		for pkg := range wallClockExempt {
			if under(filepath.Dir(strings.TrimPrefix(path, "internal/")), pkg) {
				exempt = pkg
			}
		}
		for _, decl := range f.Decls {
			key := path + ":" + declName(decl)
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || !wallClockFuncs[sel.Sel.Name] {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == timeName {
					if exempt != "" {
						exemptUsed[exempt] = true
					} else {
						found[key] = append(found[key], sel.Sel.Name)
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range slices.Sorted(maps.Keys(found)) {
		calls := strings.Join(found[key], " ")
		site, ok := wallClockAllowed[key]
		switch {
		case !ok:
			t.Errorf("%s uses the wall clock (time.%s): take a clock.Clock, or allow it in wallClockAllowed with a reason",
				key, strings.Join(found[key], ", time."))
		case site.calls != calls:
			t.Errorf("wallClockAllowed[%q] allows %q, but the function uses %q: take a clock.Clock, or update the entry",
				key, site.calls, calls)
		case strings.TrimSpace(site.reason) == "":
			t.Errorf("wallClockAllowed[%q] gives no reason", key)
		}
	}
	for _, key := range slices.Sorted(maps.Keys(wallClockAllowed)) {
		if _, ok := found[key]; !ok {
			t.Errorf("wallClockAllowed[%q]: the function no longer uses the wall clock: drop the entry", key)
		}
	}
	for _, pkg := range slices.Sorted(maps.Keys(wallClockExempt)) {
		if !exemptUsed[pkg] {
			t.Errorf("wallClockExempt[%q]: no file of the package uses the wall clock: drop the exemption", pkg)
		}
	}
}

// declName names a top-level declaration as wallClockAllowed keys it:
// "Func", "Type.Method", or "var" for a var, const or type block.
func declName(decl ast.Decl) string {
	fn, ok := decl.(*ast.FuncDecl)
	if !ok {
		return "var"
	}
	if fn.Recv == nil {
		return fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	switch r := recv.(type) {
	case *ast.IndexExpr:
		recv = r.X
	case *ast.IndexListExpr:
		recv = r.X
	}
	return recv.(*ast.Ident).Name + "." + fn.Name.Name
}

// unreachedAllowed names the declarations under internal/ that
// TestEverythingIsReachable lets stand although no root reaches them,
// keyed "import/path.Name" or, for a method, "import/path.Type.Method",
// each with the reason it stays. What an entry refers to stays with it,
// and an allowed type keeps its methods. An entry without a reason, or
// one naming a declaration that is gone or that a root now reaches,
// fails the test, so the list only shrinks.
var unreachedAllowed = map[string]string{
	"contexp/internal/journal.Memory.Snapshot": "a test fixture that freezes a journal mid-run: bifrost's " +
		"TestRecover*, TestSchedulerQueueRecovery, TestSchedulerCancelQueued and " +
		"TestCompactJournalKeepsPendingQueueRecords, journal's TestMemorySnapshotIsIndependent, and " +
		"server's TestServerServesRecoveredRun and TestScheduleQueueSurvivesRestart call it",
}

// TestEverythingIsReachable holds internal/ to code something runs.
// The roots are every main package's main, the root facade's exported
// names and every init func. From them the test follows each reference
// the type checker resolves, through function bodies, var initializers
// and type definitions. A package var is reached only through its
// uses, and a blank `var _ I = T{}` assertion reaches nothing. Test
// files are not roots: code only a test calls is unreached.
//
// A reached type does not keep its methods. A method stays when a
// reached declaration refers to it (a call, a method value or a method
// expression); when its type is reached and some interface in the build
// graph, of the module or of the standard library it links, has a
// method of its name, so a call through an interface may land on it
// (`String`, `Error`, `ServeHTTP`, `Less`, `Evaluate`); or when it is
// exported on the facade's public surface — a type the facade exports,
// or one that an exported field, method or signature of that surface
// names, transitively — so a downstream user can call it. A reached
// method reaches its type.
// Every top-level func, type, var or const and every method under
// internal/ that no root reaches fails the test, exported or not,
// unless unreachedAllowed names it with a reason.
//
// The module is type-checked from source with go/types; the standard
// library comes from the export data `go list -export` leaves in the
// build cache, read by the stdlib gc importer. Interfaces declared
// inside standard-library function bodies (errors' `Unwrap`, net's
// `Timeout`) are not in export data; a method that only they call
// would be reported.
func TestEverythingIsReachable(t *testing.T) {
	pkgs := goListAll(t, "-export")
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if p := pkgs[path]; p.Export != "" {
			return os.Open(p.Export)
		}
		return nil, fmt.Errorf("go list reported no export data for %s", path)
	})
	g := declGraph{
		decls:      make(map[types.Object]*decl),
		methods:    make(map[types.Object][]types.Object),
		interfaces: make(map[string]bool),
	}
	g.addInterface(types.Universe.Lookup("error").Type())
	checked := make(map[string]*types.Package)
	var check func(path string) (*types.Package, error)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if under(path, "contexp") {
			return check(path)
		}
		return std.Import(path)
	})}
	check = func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		p, ok := pkgs[path]
		if !ok {
			return nil, fmt.Errorf("go list did not report %s", path)
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
			Types: make(map[ast.Expr]types.TypeAndValue),
		}
		pkg, err := conf.Check(path, fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[path] = pkg
		g.add(pkg, files, info)
		return pkg, nil
	}
	for _, path := range slices.Sorted(maps.Keys(pkgs)) {
		if under(path, "contexp") {
			if _, err := check(path); err != nil {
				t.Fatalf("type-checking %s: %v", path, err)
			}
			continue
		}
		if pkgs[path].Export == "" {
			continue // unsafe
		}
		pkg, err := std.Import(path)
		if err != nil {
			t.Fatalf("importing %s: %v", path, err)
		}
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				g.addInterface(tn.Type())
			}
		}
	}
	facade, ok := checked["contexp"]
	if !ok {
		t.Fatal("go list did not report the root facade")
	}
	g.link(facade)
	if len(g.roots) == 0 {
		t.Fatal("found no roots")
	}
	reached := g.reach(g.roots)

	named := make(map[string]*decl)
	for _, d := range g.decls {
		if under(d.pkg.Path(), "contexp/internal") {
			named[d.key()] = d
		}
	}
	for _, key := range slices.Sorted(maps.Keys(unreachedAllowed)) {
		switch d, ok := named[key]; {
		case strings.TrimSpace(unreachedAllowed[key]) == "":
			t.Errorf("unreachedAllowed[%q] gives no reason", key)
		case !ok:
			t.Errorf("unreachedAllowed[%q] names no top-level declaration or method: drop the entry", key)
		case reached[d]:
			t.Errorf("unreachedAllowed[%q] is reached from a root: drop the entry", key)
		}
	}
	roots := slices.Clone(g.roots)
	for key := range unreachedAllowed {
		if d, ok := named[key]; ok {
			roots = append(roots, d)
			for _, m := range g.methods[d.obj] {
				roots = append(roots, g.decls[m])
			}
		}
	}
	kept := g.reach(roots)
	var dead []string
	for key, d := range named {
		if !kept[d] {
			dead = append(dead, fmt.Sprintf("%s: %s", fset.Position(d.pos), key))
		}
	}
	slices.Sort(dead)
	for _, line := range dead {
		t.Errorf("no root reaches %s: delete it, or allow it in unreachedAllowed with a reason", line)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// decl is one package-level declaration or method of the module, with
// every module object its source refers to.
type decl struct {
	obj  types.Object
	pkg  *types.Package
	name string // Name, or Recv.Name for a method
	pos  token.Pos
	refs []types.Object
}

func (d *decl) key() string { return d.pkg.Path() + "." + d.name }

type declGraph struct {
	decls      map[types.Object]*decl
	roots      []*decl
	methods    map[types.Object][]types.Object // a named type's declared methods
	interfaces map[string]bool                 // method names of every interface in the build graph
}

// add records pkg's declarations: the roots among them (main, init, and
// the root facade's exported names), each one's references, and the
// method names of the interfaces its source spells out.
func (g *declGraph) add(pkg *types.Package, files []*ast.File, info *types.Info) {
	refs := func(n ast.Node) []types.Object {
		var out []types.Object
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil && obj.Pkg() != nil && under(obj.Pkg().Path(), "contexp") {
					out = append(out, origin(obj))
				}
			}
			return true
		})
		return out
	}
	facade := pkg.Path() == "contexp"
	newDecl := func(id *ast.Ident, n ast.Node) *decl {
		obj := info.Defs[id]
		d := &decl{obj: obj, pkg: pkg, name: id.Name, pos: id.Pos(), refs: refs(n)}
		g.decls[obj] = d
		return d
	}
	top := func(id *ast.Ident, n ast.Node) *decl {
		d := newDecl(id, n)
		if facade && id.IsExported() {
			g.roots = append(g.roots, d)
		}
		return d
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				g.addInterface(info.TypeOf(it))
			}
			return true
		})
		for _, fd := range f.Decls {
			switch fd := fd.(type) {
			case *ast.FuncDecl:
				if fd.Recv != nil {
					d := newDecl(fd.Name, fd)
					recv := receiverType(d.obj.(*types.Func))
					d.name = recv.Name() + "." + d.name
					g.methods[recv] = append(g.methods[recv], d.obj)
					continue
				}
				d := top(fd.Name, fd)
				if fd.Name.Name == "init" || (pkg.Name() == "main" && fd.Name.Name == "main") {
					g.roots = append(g.roots, d)
				}
			case *ast.GenDecl:
				for _, spec := range fd.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						top(spec.Name, spec)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							if id.Name != "_" {
								top(id, spec)
							}
						}
					}
				}
			}
		}
	}
}

// addInterface records the method names of typ if it is an interface.
func (g *declGraph) addInterface(typ types.Type) {
	if it, ok := typ.Underlying().(*types.Interface); ok {
		for i := range it.NumMethods() {
			g.interfaces[it.Method(i).Name()] = true
		}
	}
}

// link runs once every package is added: a type reaches each method
// that an interface may call, and the exported methods of facade's
// public surface are roots.
func (g *declGraph) link(facade *types.Package) {
	for recv, methods := range g.methods {
		for _, m := range methods {
			if g.interfaces[m.Name()] {
				g.decls[recv].refs = append(g.decls[recv].refs, m)
			}
		}
	}
	seen := make(map[types.Type]bool)
	var visit func(typ types.Type)
	visit = func(typ types.Type) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch typ := typ.(type) {
		case *types.Alias:
			visit(types.Unalias(typ))
		case *types.Named:
			for i := range typ.TypeArgs().Len() {
				visit(typ.TypeArgs().At(i))
			}
			if pkg := typ.Obj().Pkg(); pkg == nil || !under(pkg.Path(), "contexp") {
				return
			}
			// The method set of *T holds T's methods and every one it
			// promotes from an embedded field.
			mset := types.NewMethodSet(types.NewPointer(typ))
			for i := range mset.Len() {
				if fn := mset.At(i).Obj().(*types.Func); fn.Exported() {
					if d, ok := g.decls[origin(fn)]; ok {
						g.roots = append(g.roots, d)
					}
					visit(fn.Type())
				}
			}
			visit(typ.Underlying())
		case *types.Pointer:
			visit(typ.Elem())
		case *types.Slice:
			visit(typ.Elem())
		case *types.Array:
			visit(typ.Elem())
		case *types.Chan:
			visit(typ.Elem())
		case *types.Map:
			visit(typ.Key())
			visit(typ.Elem())
		case *types.Signature:
			for _, tuple := range []*types.Tuple{typ.Params(), typ.Results()} {
				for v := range tuple.Variables() {
					visit(v.Type())
				}
			}
		case *types.Struct:
			for f := range typ.Fields() {
				if f.Exported() || f.Embedded() {
					visit(f.Type())
				}
			}
		case *types.Interface:
			for m := range typ.Methods() {
				if m.Exported() {
					visit(m.Type())
				}
			}
		}
	}
	for _, name := range facade.Scope().Names() {
		if obj := facade.Scope().Lookup(name); obj.Exported() {
			visit(obj.Type())
		}
	}
}

// reach returns every declaration one of roots reaches.
func (g *declGraph) reach(roots []*decl) map[*decl]bool {
	reached := make(map[*decl]bool)
	queue := slices.Clone(roots)
	for len(queue) > 0 {
		d := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if reached[d] {
			continue
		}
		reached[d] = true
		for _, obj := range d.refs {
			next, ok := g.decls[obj]
			if !ok {
				// A method with no declaration of its own (one of an
				// interface) reaches the type it belongs to.
				if fn, isFunc := obj.(*types.Func); isFunc {
					if recv := receiverType(fn); recv != nil {
						next, ok = g.decls[recv]
					}
				}
			}
			if ok && !reached[next] {
				queue = append(queue, next)
			}
		}
	}
	return reached
}

// origin maps an object of an instantiated generic to its declaration.
func origin(obj types.Object) types.Object {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin()
	case *types.Var:
		return obj.Origin()
	}
	return obj
}

// receiverType is the named type fn is a method of, or nil.
func receiverType(fn *types.Func) *types.TypeName {
	recv := fn.Signature().Recv()
	if recv == nil {
		return nil
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	if named, ok := typ.(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}
