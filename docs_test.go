package archertwin_test

// Documentation checks, run by the CI docs job: every relative markdown
// link in README.md, docs/ and examples/ must resolve to a file or
// directory that exists in the repository, and every test README.md and
// docs/ cite by name must exist, so the documentation suite cannot rot
// silently as files move and tests are renamed.

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/greenhpc/archertwin/internal/scenario"
)

// mdLink matches [text](target); image links ![..](..) match too and are
// checked the same way — a broken image path is documentation rot just
// like a broken link.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// docFiles returns every markdown file the check covers.
func docFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md", "ROADMAP.md", "CHANGES.md"}
	for _, dir := range []string{"docs", "examples"} {
		err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if !info.IsDir() && strings.HasSuffix(path, ".md") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
	}
	var out []string
	for _, f := range files {
		if _, err := os.Stat(f); err == nil {
			out = append(out, f)
		}
	}
	return out
}

func TestDocsLinksResolve(t *testing.T) {
	checked := 0
	for _, file := range docFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"),
				strings.HasPrefix(target, "#"):
				continue // external links and in-page anchors: not checked
			}
			// Strip a fragment; resolve relative to the linking file.
			path := target
			if i := strings.IndexByte(path, '#'); i >= 0 {
				path = path[:i]
			}
			if path == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(file), filepath.FromSlash(path))
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s)", file, target, resolved)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("link check matched no links at all; is the matcher broken?")
	}
}

// benchPattern matches a quoted `go test -bench '...'` benchmark pattern.
var benchPattern = regexp.MustCompile(`go test -bench '([^']+)'`)

// TestPerfDocsBenchGateMatchesCI pins docs/performance.md to the CI bench
// gate: the blessing command must use the gate's exact benchmark pattern
// (a benchmark left out of a blessed baseline silently loses its gate),
// and the gate description must name every gated benchmark.
func TestPerfDocsBenchGateMatchesCI(t *testing.T) {
	read := func(path string) string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	ci := benchPattern.FindAllStringSubmatch(read(".github/workflows/ci.yml"), -1)
	if len(ci) != 1 {
		t.Fatalf("ci.yml: found %d quoted bench patterns, want the gate's one", len(ci))
	}
	doc := read("docs/performance.md")
	blessed := benchPattern.FindAllStringSubmatch(doc, -1)
	if len(blessed) != 1 || blessed[0][1] != ci[0][1] {
		t.Fatalf("docs/performance.md blessing pattern %q, want the CI gate's %q", blessed, ci[0][1])
	}
	start := strings.Index(doc, "## How the CI gate works")
	end := strings.Index(doc, "## Blessing a new baseline")
	if start < 0 || end < start {
		t.Fatal("docs/performance.md: gate sections not found")
	}
	gate := doc[start:end]
	for _, name := range strings.Split(ci[0][1], "|") {
		if !strings.Contains(gate, "`"+name+"`") {
			t.Errorf("docs/performance.md gate description omits gated benchmark %s", name)
		}
	}
}

// TestSweepsDocAxesTable pins the Axes table of docs/sweeps.md to the
// code: every Axes JSON field has a row, no row names a field that does
// not exist, and each row's "Held at" cell is the value the baseline
// scenario of an empty spec takes on that axis, read from the Scenario
// field of the same Go name. The nodes axis holds at the spec's own
// facility size, and grid_mean compares as a number.
func TestSweepsDocAxesTable(t *testing.T) {
	data, err := os.ReadFile("docs/sweeps.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	start := strings.Index(doc, "\n## Axes\n")
	if start < 0 {
		t.Fatal("docs/sweeps.md: no Axes section")
	}
	section := doc[start+1:]
	if end := strings.Index(section[1:], "\n## "); end >= 0 {
		section = section[:end+1]
	}
	held := map[string]string{}
	for _, m := range axisRow.FindAllStringSubmatch(section, -1) {
		held[m[1]] = strings.ReplaceAll(strings.TrimSpace(m[2]), "`", "")
	}

	spec := scenario.Spec{}
	scenarios, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	base := reflect.ValueOf(scenarios[0])
	axes := reflect.TypeOf(scenario.Axes{})
	for i := 0; i < axes.NumField(); i++ {
		f := axes.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		cell, ok := held[name]
		if !ok {
			t.Errorf("docs/sweeps.md Axes table has no row for %q", name)
			continue
		}
		delete(held, name)
		got := base.FieldByName(f.Name)
		switch name {
		case "nodes":
			if cell != "spec nodes" || got.Int() != int64(spec.Canonical().Nodes) {
				t.Errorf("nodes: held at %q, baseline %d, spec nodes %d", cell, got.Int(), spec.Canonical().Nodes)
			}
		case "grid_mean":
			if v, err := strconv.ParseFloat(cell, 64); err != nil || v != got.Float() {
				t.Errorf("grid_mean: held at %q, baseline scenario has %v", cell, got.Float())
			}
		default:
			if !got.IsValid() || got.Kind() != reflect.String {
				t.Errorf("%s: Scenario has no string field %s", name, f.Name)
			} else if cell != got.String() {
				t.Errorf("%s: held at %q, baseline scenario has %q", name, cell, got.String())
			}
		}
	}
	for name := range held {
		t.Errorf("docs/sweeps.md Axes table row %q names no Axes field", name)
	}
}

// axisRow matches one row of the sweeps.md Axes table: the axis name and
// its last ("Held at") cell.
var axisRow = regexp.MustCompile("(?m)^\\| `([a-z_]+)` \\|.*\\| ([^|]+) \\|$")

// citedTest matches a test, benchmark or fuzz func cited in a code span,
// bare (`TestName`) or qualified by its package (`pkg.TestName`); a
// subtest path after the name (`TestName/case`) is allowed.
var citedTest = regexp.MustCompile("`(?:([a-z][a-z0-9]*)\\.)?((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)(?:/[^`]*)?`")

// testFunc matches a top-level test, benchmark or fuzz func declaration,
// and packageClause a Go file's package name.
var (
	testFunc      = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)\(`)
	packageClause = regexp.MustCompile(`(?m)^package (\w+)`)
)

// TestDocsCitedTestsExist checks that every test README.md and docs/*.md
// cite by name is declared: `pkg.TestName` in a _test.go file of package
// pkg (an external pkg_test package counts as pkg), a bare `TestName` in
// any package of the repository. A renamed or deleted test otherwise
// leaves its citation pointing at nothing.
func TestDocsCitedTestsExist(t *testing.T) {
	declared := map[string]map[string]bool{} // package name -> func names
	anywhere := map[string]bool{}
	err := filepath.Walk(".", func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() && path != "." && strings.HasPrefix(info.Name(), ".") {
			return filepath.SkipDir
		}
		if info.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		m := packageClause.FindSubmatch(data)
		if m == nil {
			t.Errorf("%s: no package clause", path)
			return nil
		}
		pkg := strings.TrimSuffix(string(m[1]), "_test")
		if declared[pkg] == nil {
			declared[pkg] = map[string]bool{}
		}
		for _, f := range testFunc.FindAllSubmatch(data, -1) {
			declared[pkg][string(f[1])] = true
			anywhere[string(f[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, file := range append([]string{"README.md"}, docs...) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range citedTest.FindAllStringSubmatch(string(data), -1) {
			pkg, name := m[1], m[2]
			switch {
			case pkg == "" && !anywhere[name]:
				t.Errorf("%s: cites %s, which no package declares", file, m[0])
			case pkg != "" && !declared[pkg][name]:
				t.Errorf("%s: cites %s, which package %s does not declare", file, m[0], pkg)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("matched no cited tests at all; is the matcher broken?")
	}
}
