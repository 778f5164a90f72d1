package archertwin_test

// Documentation link check, run by the CI docs job: every relative
// markdown link in README.md, docs/ and examples/ must resolve to a file
// or directory that exists in the repository, so the documentation suite
// cannot rot silently as files move.

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
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
