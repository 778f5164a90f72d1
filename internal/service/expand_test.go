package service

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// expansions counts, over the non-test source of a package, how many
// times the code a function reaches expands a sweep spec. It is a static
// count over every branch at once, so a function whose branches expand
// once each counts twice; the entry points below keep a single path.
//
//   - x.Expand() and x.Partition() each count one: they are the two
//     expansions.
//   - A call to a function or method the package itself declares (f(...)
//     or x.m(...); func literals and go statements are part of the body
//     they sit in) counts what that function's body counts. A method
//     call is matched by name against every method of that name.
//   - A call into package scenario (scenario.F(...)) or to a method of
//     the shared Runner (x.Runner.M(...)) counts what that scenario
//     function's body counts, by the same rules over the scenario
//     package's own declarations.
//   - A call through a func value is not followed: Config.Run, the
//     override that coordinators and tests set, receives a spec by
//     design, and the Executor that RunSweep calls receives the
//     partition.
type expansions struct {
	decls map[string][]*ast.FuncDecl // funcs by name, methods by "." + name
	next  *expansions                // package scenario, for calls into it
	memo  map[string]int
}

func parsePackage(t *testing.T, dir string, next *expansions) *expansions {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	e := &expansions{decls: map[string][]*ast.FuncDecl{}, next: next, memo: map[string]int{}}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				key := fd.Name.Name
				if fd.Recv != nil {
					key = "." + key
				}
				e.decls[key] = append(e.decls[key], fd)
			}
		}
	}
	if len(e.decls) == 0 {
		t.Fatalf("no functions declared in %s", dir)
	}
	return e
}

// of counts the expansions of the func named key, or of the methods
// named key without its leading ".": the most any one of them makes. A
// function on the current call path counts zero.
func (e *expansions) of(key string) int {
	if n, ok := e.memo[key]; ok {
		return n
	}
	e.memo[key] = 0
	most := 0
	for _, fd := range e.decls[key] {
		if n := e.body(fd.Body); n > most {
			most = n
		}
	}
	e.memo[key] = most
	return most
}

func (e *expansions) body(body *ast.BlockStmt) int {
	n := 0
	ast.Inspect(body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if e.decls[fun.Name] != nil {
				n += e.of(fun.Name)
			}
		case *ast.SelectorExpr:
			name := fun.Sel.Name
			switch {
			case (name == "Expand" || name == "Partition") && len(call.Args) == 0:
				n++
			case e.next != nil && isIdent(fun.X, "scenario"):
				n += e.next.of(name)
			case e.next != nil && isSelector(fun.X, "Runner"):
				n += e.next.of("." + name)
			default:
				n += e.of("." + name)
			}
		}
		return true
	})
	return n
}

func isIdent(x ast.Expr, name string) bool {
	id, ok := x.(*ast.Ident)
	return ok && id.Name == name
}

func isSelector(x ast.Expr, name string) bool {
	sel, ok := x.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name
}

// TestEntryPointsExpandOnce pins that a sweep is expanded once where it
// enters: a served sweep (in memory or journaled, which share Submit's
// one path through execute), a fabric worker's shard, a sweep Recover
// resumes or reassembles, and a coordinator's sweep each partition their
// spec exactly once and hand the partition down.
func TestEntryPointsExpandOnce(t *testing.T) {
	sc := parsePackage(t, "../scenario", nil)
	for _, fn := range []string{".Expand", ".Partition"} {
		if sc.decls[fn] == nil {
			t.Fatalf("package scenario declares no method %s", fn[1:])
		}
	}
	svc := parsePackage(t, ".", sc)
	fab := parsePackage(t, "../fabric", sc)
	for _, c := range []struct {
		name string
		pkg  *expansions
		fn   string
	}{
		{"served sweep (Service.Submit, then execute)", svc, ".Submit"},
		{"fabric worker shard (Service.RunShard)", svc, ".RunShard"},
		{"recovered sweep (Service.Recover, then execute)", svc, ".Recover"},
		{"coordinator sweep (Coordinator.Run)", fab, ".Run"},
	} {
		if c.pkg.decls[c.fn] == nil {
			t.Errorf("%s: no method %s", c.name, c.fn[1:])
			continue
		}
		if n := c.pkg.of(c.fn); n != 1 {
			t.Errorf("%s expands its spec %d times, want once", c.name, n)
		}
	}
	// Below the entry points, the sweep loop, the executors and
	// assembly take the partition and expand nothing.
	for _, c := range []struct {
		name string
		pkg  *expansions
		fn   string
	}{
		{"scenario.RunSweep", sc, "RunSweep"},
		{"Runner.Execute", sc, ".Execute"},
		{"Runner.RunSelected", sc, ".RunSelected"},
		{"Partition.Assemble", sc, ".Assemble"},
		{"Service.execute", svc, ".execute"},
		{"Coordinator.execute", fab, ".execute"},
	} {
		if c.pkg.decls[c.fn] == nil {
			t.Errorf("no %s", c.name)
		} else if n := c.pkg.of(c.fn); n != 0 {
			t.Errorf("%s expands a spec %d times, want 0", c.name, n)
		}
	}
}
