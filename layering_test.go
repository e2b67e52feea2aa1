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
		"topology", "tracing", "traffic", "wire"},
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

// unreachedAllowed names the declarations under internal/ that
// TestEverythingIsReachable lets stand although no root reaches them,
// keyed "import/path.Name", each with the reason it stays. What an
// entry refers to stays with it. An entry without a reason, or one
// naming a declaration that is gone or that a root now reaches, fails
// the test, so the list only shrinks.
var unreachedAllowed = map[string]string{
	"contexp/internal/scenario.Parse": onlyTested + "FuzzParseSpec, TestParseRejectsBadSpecs, " +
		"TestCatalogJSONRoundTrip; no catalog entry is read from JSON",
	"contexp/internal/stats.EWMA":         onlyTested + "TestEWMA",
	"contexp/internal/stats.Exponential":  onlyTested + "TestExponentialSample",
	"contexp/internal/stats.MannWhitneyU": onlyTested + "TestMannWhitneyU, TestMannWhitneyUTies",
	"contexp/internal/stats.Max":          onlyTested + "TestMinMaxSum, TestQuantileOrderingProperty",
	"contexp/internal/stats.Quantile": onlyTested + "TestQuantile, TestQuantileDoesNotMutate, " +
		"TestQuantileOrderingProperty, TestLogNormalSampleMoments",
	"contexp/internal/stats.Min":                     onlyTested + "TestMinMaxSum, TestQuantileOrderingProperty",
	"contexp/internal/stats.MinSampleSizeMean":       onlyTested + "TestMinSampleSizeMean",
	"contexp/internal/stats.MinSampleSizeProportion": onlyTested + "TestMinSampleSizeProportion",
	"contexp/internal/stats.Pareto":                  onlyTested + "TestParetoSample",
	"contexp/internal/stats.Sum":                     onlyTested + "TestMinMaxSum",
	"contexp/internal/stats.TwoProportionZ":          onlyTested + "TestTwoProportionZ",
	"contexp/internal/traffic.NewConsumption": onlyTested + "TestConsumptionAllocateRelease, TestConsumptionBounds, " +
		"TestNewConsumptionValidation, TestConsumptionNeverExceedsCapacityProperty",
}

// onlyTested opens the reason of an allowed declaration whose only
// callers are tests: it is deleted together with them.
const onlyTested = "only tests call it, and it goes when they do: "

// TestEverythingIsReachable holds internal/ to code something runs.
// The roots are every main package's main, the root facade's exported
// names and every init func. From them the test follows each reference
// the type checker resolves, through function bodies, var initializers
// and type definitions; a reached type keeps all its methods, and a
// reached method its type. A package var is reached only through its
// uses, and a blank `var _ I = T{}` assertion reaches nothing. Test
// files are not roots: code only a test calls is unreached. Every
// top-level func, type, var or const under internal/ that no root
// reaches fails the test, exported or not, unless unreachedAllowed
// names it with a reason.
//
// The module is type-checked from source with go/types; the standard
// library comes from the export data `go list -export` leaves in the
// build cache, read by the stdlib gc importer.
func TestEverythingIsReachable(t *testing.T) {
	pkgs := goListAll(t, "-export")
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if p := pkgs[path]; p.Export != "" {
			return os.Open(p.Export)
		}
		return nil, fmt.Errorf("go list reported no export data for %s", path)
	})
	g := declGraph{decls: make(map[types.Object]*decl)}
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
		info := &types.Info{Defs: make(map[*ast.Ident]types.Object), Uses: make(map[*ast.Ident]types.Object)}
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
		}
	}
	if len(g.roots) == 0 {
		t.Fatal("found no roots")
	}
	reached := g.reach(g.roots)

	named := make(map[string]*decl)
	for _, d := range g.decls {
		if d.top && under(d.pkg.Path(), "contexp/internal") {
			named[d.key()] = d
		}
	}
	for _, key := range slices.Sorted(maps.Keys(unreachedAllowed)) {
		switch d, ok := named[key]; {
		case strings.TrimSpace(unreachedAllowed[key]) == "":
			t.Errorf("unreachedAllowed[%q] gives no reason", key)
		case !ok:
			t.Errorf("unreachedAllowed[%q] names no top-level declaration: drop the entry", key)
		case reached[d]:
			t.Errorf("unreachedAllowed[%q] is reached from a root: drop the entry", key)
		}
	}
	roots := slices.Clone(g.roots)
	for key := range unreachedAllowed {
		if d, ok := named[key]; ok {
			roots = append(roots, d)
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
	pkg  *types.Package
	name string // Name, or Recv.Name for a method
	pos  token.Pos
	top  bool // a top-level func, type, var or const; not a method
	refs []types.Object
}

func (d *decl) key() string { return d.pkg.Path() + "." + d.name }

type declGraph struct {
	decls map[types.Object]*decl
	roots []*decl
}

// add records pkg's declarations: the roots among them (main, init, and
// the root facade's exported names) and each one's references.
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
	newDecl := func(id *ast.Ident, top bool, n ast.Node) *decl {
		d := &decl{pkg: pkg, name: id.Name, pos: id.Pos(), top: top, refs: refs(n)}
		g.decls[info.Defs[id]] = d
		if facade && top && id.IsExported() {
			g.roots = append(g.roots, d)
		}
		return d
	}
	var methods [][2]types.Object // type, method
	for _, f := range files {
		for _, fd := range f.Decls {
			switch fd := fd.(type) {
			case *ast.FuncDecl:
				if fd.Recv != nil {
					d := newDecl(fd.Name, false, fd)
					recv := receiverType(info.Defs[fd.Name].(*types.Func))
					d.name = recv.Name() + "." + d.name
					methods = append(methods, [2]types.Object{recv, info.Defs[fd.Name]})
					continue
				}
				d := newDecl(fd.Name, true, fd)
				if fd.Name.Name == "init" || (pkg.Name() == "main" && fd.Name.Name == "main") {
					g.roots = append(g.roots, d)
				}
			case *ast.GenDecl:
				for _, spec := range fd.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						newDecl(spec.Name, true, spec)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							if id.Name != "_" {
								newDecl(id, true, spec)
							}
						}
					}
				}
			}
		}
	}
	// A reached type keeps every method.
	for _, m := range methods {
		g.decls[m[0]].refs = append(g.decls[m[0]].refs, m[1])
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
