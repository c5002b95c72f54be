package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// BENCHMARK.json at the root of the repo must say what metrics.go says.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var decl struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, want %d", len(decl.Workloads), len(workloadNames))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	compare := func(kind string, got []jsonMetric, want []metricDecl, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, want %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s metric %d is %+v, want %s %s %s", kind, i, g, w.Name, w.Unit, w.Better)
			}
			if !name.MatchString(w.Name) || !unit.MatchString(w.Unit) || seen[w.Name] {
				t.Errorf("%s metric %q (%q): bad or repeated name, or bad unit", kind, w.Name, w.Unit)
			}
			seen[w.Name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || w.Bound <= 0 || w.Bound > 0.25):
				t.Errorf("%s metric %s: bound %v, want %v within (0, 0.25]", kind, w.Name, g.Bound, w.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s metric %s carries a bound", kind, w.Name)
			}
		}
	}
	compare("end_to_end", decl.EndToEnd, endToEnd, true)
	compare("per_layer", decl.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("setup_s must be an end-to-end metric")
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", decl.Paths)
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", decl.RunSeconds)
	}
}

// The benchmark measures every layer from outside, through the few public
// names in surface.txt, so that internals can be merged or deleted
// without editing it. This walks the package's own files and fails on any
// other name of lulesh/internal/*, on a listed name that is no longer
// used, and on the option toggles the benchmark must leave at their
// defaults.
func TestCompileSurfaceIsNarrow(t *testing.T) {
	buf, err := os.ReadFile("surface.txt")
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{}
	for _, line := range strings.Split(string(buf), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			allowed[line] = false
		}
	}
	toggles := map[string]bool{"Coalesce": true, "TreeReduce": true, "StealHalf": true,
		"FieldLayout": true, "AdaptiveGrain": true}

	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for path, file := range pkg.Files {
			internal := map[string]string{} // local name -> package
			for _, imp := range file.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				if rest, ok := strings.CutPrefix(p, "lulesh/internal/"); ok {
					local := rest
					if imp.Name != nil {
						local = imp.Name.Name
					}
					internal[local] = rest
				} else if strings.HasPrefix(p, "lulesh") {
					t.Errorf("%s imports %s", path, p)
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if toggles[n.Sel.Name] {
						t.Errorf("%s: touches the toggle %s", fset.Position(n.Pos()), n.Sel.Name)
					}
					if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil && internal[x.Name] != "" {
						use := internal[x.Name] + "." + n.Sel.Name
						if _, ok := allowed[use]; !ok {
							t.Errorf("%s: %s is not in surface.txt", fset.Position(n.Pos()), use)
						}
						allowed[use] = true
					}
				case *ast.KeyValueExpr:
					if k, ok := n.Key.(*ast.Ident); ok && toggles[k.Name] {
						t.Errorf("%s: sets the toggle %s", fset.Position(n.Pos()), k.Name)
					}
				}
				return true
			})
		}
	}
	var unused []string
	for use, used := range allowed {
		if !used {
			unused = append(unused, use)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("surface.txt lists names the benchmark does not use: %v", unused)
	}
}

// The smoke path cuts every workload to a few cycles on small meshes and
// runs it both ways; every declared metric must come out, finite, and
// nothing undeclared.
func TestSmokeEmitsEveryDeclaredMetric(t *testing.T) {
	if err := os.MkdirAll("out", 0o755); err != nil {
		t.Fatal(err)
	}
	gold, err := loadGoldens(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		for _, mode := range []struct {
			name  string
			decls []metricDecl
			run   func(*env) (metrics, error)
		}{
			{"untraced", endToEnd, runUntraced},
			{"traced", perLayer, runTraced},
		} {
			e := &env{workload: w, seed: 3, seconds: 1, smoke: true, gold: gold}
			m, err := mode.run(e)
			if err != nil {
				t.Fatalf("%s %s: %v", w, mode.name, err)
			}
			if e.failed != 0 || e.attempted == 0 {
				t.Errorf("%s %s: %d of %d operations failed", w, mode.name, e.failed, e.attempted)
			}
			if len(m) != len(mode.decls) {
				t.Errorf("%s %s: %d metrics emitted, %d declared", w, mode.name, len(m), len(mode.decls))
			}
			for _, d := range mode.decls {
				v, ok := m[d.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s %s: metric %s = %v (emitted: %v)", w, mode.name, d.Name, v, ok)
				}
			}
		}
	}
}
