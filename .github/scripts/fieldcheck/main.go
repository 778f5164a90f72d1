// Command fieldcheck lists the struct fields, consts and named types
// declared in internal/ that no program reads or uses, and the fields
// that programs read but never write, and fails unless each is named in
// .github/fieldcheck-allow.txt. It is the data counterpart of linkmap.sh,
// which sees funcs only.
//
// The code it reads is every non-test Go file of the module and of the
// perfbench module, type-checked from source (the standard library comes
// from the compiler's export data). A field is read by a selector x.f in
// any position other than the target of a plain assignment, by an
// operand of == or != of its struct type, and by hashing as a map key;
// a const is read by any use. A named type is used by any reference to
// its name outside its own declaration and its own methods (they need a
// value of it first). A field is written by an assignment to
// x.f or to an element x.f[i], by x.f++ and op-assignments, by &x.f, by
// a method call x.f.M(), by a composite-literal key or position, and by
// an assignment through it (x.f.g = v writes f as well as g). Embedded
// fields, blank fields and fields of sync and sync/atomic types are not
// checked. Exported fields of struct types that reach encoding/json (a
// type with a json tag, or one passed to an encoding/json call, and the
// types of their exported fields, transitively) count as both read and
// written: the codec does both by reflection.
//
// The check also fails on a stale allowlist entry: one that names no
// declared field, const or type, or one that nothing is reported for.
// Each allowlist line is `symbol  # reason`, the symbol as the report
// prints it (pkg.Type.field, pkg.Const or pkg.Type); blank lines and
// lines starting with # are ignored.
//
// Usage, from anywhere in the repository: go run ./.github/scripts/fieldcheck
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
)

func main() {
	root, module, err := findModule()
	if err != nil {
		fatal(err)
	}
	l := &loader{fset: token.NewFileSet(), pkgs: map[string]*pkg{}, std: importer.Default()}
	if err := l.scan(root, module); err != nil {
		fatal(err)
	}
	if err := l.scan(filepath.Join(root, "perfbench"), module+"/perfbench"); err != nil {
		fatal(err)
	}
	paths := make([]string, 0, len(l.pkgs))
	for p := range l.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			fatal(err)
		}
	}

	c := newChecker(l, module+"/internal/")
	for _, p := range paths {
		c.declare(l.pkgs[p])
	}
	for _, p := range paths {
		c.use(l.pkgs[p])
	}
	c.jsonReach()
	sort.Slice(c.syms, func(i, j int) bool { return c.syms[i].name < c.syms[j].name })

	allow, err := readAllow(filepath.Join(root, ".github", "fieldcheck-allow.txt"))
	if err != nil {
		fatal(err)
	}
	failed := false
	report := func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
		failed = true
	}
	flagged := map[string]bool{}
	for _, s := range c.syms {
		var why string
		switch {
		case !c.read[s.obj] && s.kind == typeSym:
			why = "never used"
		case !c.read[s.obj]:
			why = "never read"
		case s.kind == fieldSym && !c.written[s.obj]:
			why = "read but never written"
		default:
			continue
		}
		flagged[s.name] = true
		if !allow[s.name] {
			report("%s: %s by non-test code (declared at %s)", s.name, why, l.fset.Position(s.obj.Pos()))
		}
	}
	declared := map[string]bool{}
	for _, s := range c.syms {
		declared[s.name] = true
	}
	for _, name := range sortedKeys(allow) {
		switch {
		case !declared[name]:
			report("%s: stale allowlist entry, no such internal/ field, const or type", name)
		case !flagged[name]:
			report("%s: stale allowlist entry, read and written (or used) by non-test code", name)
		}
	}
	if failed {
		fmt.Println("fieldcheck: delete the code above, or list it in .github/fieldcheck-allow.txt with a reason")
		os.Exit(1)
	}
	fmt.Printf("fieldcheck: %d internal/ fields, consts and types, %d allowlisted in .github/fieldcheck-allow.txt; %d packages\n",
		len(c.syms), len(allow), len(paths))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fieldcheck:", err)
	os.Exit(2)
}

// findModule walks up from the working directory to the go.mod of the
// main module and returns its directory and module path.
func findModule() (string, string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && filepath.Base(dir) != "perfbench" {
			for _, line := range strings.Split(string(data), "\n") {
				if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
					return dir, f[1], nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// readAllow parses the allowlist into a set of symbols, failing on a
// line without a reason and on a symbol listed twice.
func readAllow(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, ok := strings.Cut(line, "#")
		sym = strings.TrimSpace(sym)
		if !ok || strings.TrimSpace(reason) == "" || strings.ContainsAny(sym, " \t") {
			return nil, fmt.Errorf("%s:%d: want `symbol  # reason`", path, n)
		}
		if allow[sym] {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, sym)
		}
		allow[sym] = true
	}
	return allow, sc.Err()
}

// pkg is one package's non-test source and, once checked, its types.
type pkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader type-checks the module's packages from source and takes every
// other import from the compiler's export data.
type loader struct {
	fset *token.FileSet
	pkgs map[string]*pkg
	std  types.Importer
}

// scan parses the non-test files of every package under dir, skipping
// directories named testdata or starting with . or _, and other modules.
func (l *loader) scan(dir, importPath string) error {
	return filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != dir {
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		p := &pkg{path: importPath}
		if rel != "." {
			p.path = importPath + "/" + filepath.ToSlash(rel)
		}
		for _, e := range entries {
			fn := e.Name()
			if e.IsDir() || !strings.HasSuffix(fn, ".go") || strings.HasSuffix(fn, "_test.go") {
				continue
			}
			if ok, err := build.Default.MatchFile(path, fn); err != nil || !ok {
				continue
			}
			f, err := parser.ParseFile(l.fset, filepath.Join(path, fn), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		if len(p.files) > 0 {
			l.pkgs[p.path] = p
		}
		return nil
	})
}

// Import implements types.Importer, checking module packages on first
// use.
func (l *loader) Import(path string) (*types.Package, error) {
	p, ok := l.pkgs[path]
	if !ok {
		return l.std.Import(path)
	}
	if p.types != nil {
		return p.types, nil
	}
	p.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tp, err := conf.Check(path, l.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.types = tp
	return tp, nil
}

// sym is one checked declaration.
type sym struct {
	name string
	obj  types.Object
	kind symKind
}

type symKind int

const (
	fieldSym symKind = iota
	constSym
	typeSym
)

type checker struct {
	l       *loader
	prefix  string
	syms    []sym
	read    map[types.Object]bool // fields and consts read, types used
	written map[types.Object]bool
	// jsonSeeds are the types passed to encoding/json calls.
	jsonSeeds []types.Type
}

func newChecker(l *loader, prefix string) *checker {
	return &checker{l: l, prefix: prefix, read: map[types.Object]bool{}, written: map[types.Object]bool{}}
}

// declare records the fields, consts and named types declared in an
// internal/ package, named pkg.Type.field (pkg.Type.field.sub inside an
// anonymous struct field), pkg.Const and pkg.Type.
func (c *checker) declare(p *pkg) {
	if !strings.HasPrefix(p.path, c.prefix) {
		return
	}
	short := strings.TrimPrefix(p.path, c.prefix)
	add := func(name string, obj types.Object, kind symKind) {
		c.syms = append(c.syms, sym{name: name, obj: obj, kind: kind})
	}
	var structFields func(prefix string, st *ast.StructType)
	structFields = func(prefix string, st *ast.StructType) {
		for _, f := range st.Fields.List {
			for _, id := range f.Names {
				if id.Name == "_" {
					continue
				}
				v, _ := p.info.Defs[id].(*types.Var)
				if v == nil || isSync(v.Type()) {
					continue
				}
				add(prefix+"."+id.Name, v, fieldSym)
				if inner, ok := f.Type.(*ast.StructType); ok {
					structFields(prefix+"."+id.Name, inner)
				}
			}
		}
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if tn, ok := p.info.Defs[n.Name].(*types.TypeName); ok && n.Name.Name != "_" {
					add(short+"."+n.Name.Name, tn, typeSym)
				}
				if st, ok := n.Type.(*ast.StructType); ok {
					structFields(short+"."+n.Name.Name, st)
					return false
				}
			case *ast.StructType:
				pos := c.l.fset.Position(n.Pos())
				structFields(fmt.Sprintf("%s.struct@%s:%d", short, filepath.Base(pos.Filename), pos.Line), n)
				return false
			case *ast.ValueSpec:
				for _, id := range n.Names {
					if k, ok := p.info.Defs[id].(*types.Const); ok && id.Name != "_" {
						add(short+"."+id.Name, k, constSym)
					}
				}
			}
			return true
		})
	}
}

// isSync reports whether t is (a pointer to) a type of sync or
// sync/atomic.
func isSync(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	path := named.Obj().Pkg().Path()
	return path == "sync" || path == "sync/atomic"
}

// unparen strips parentheses from x.
func unparen(x ast.Expr) ast.Expr {
	for {
		p, ok := x.(*ast.ParenExpr)
		if !ok {
			return x
		}
		x = p.X
	}
}

// field returns the declared field x selects, if any.
func (c *checker) field(p *pkg, x ast.Expr) *types.Var {
	x = unparen(x)
	sel, ok := x.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s := p.info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil
	}
	return s.Obj().(*types.Var).Origin()
}

// write marks the field target x assigns (x.f, x.f[i], or an element
// or field reached through them) as written. Selectors a write reaches
// through are written too: x.f.g = v writes g and f.
func (c *checker) write(p *pkg, x ast.Expr) {
	for {
		x = unparen(x)
		switch e := x.(type) {
		case *ast.SelectorExpr:
			if v := c.field(p, e); v != nil {
				c.written[v] = true
			}
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		default:
			return
		}
	}
}

// use walks one package's code, recording reads and writes.
func (c *checker) use(p *pkg) {
	// pureWrites are selector targets of plain assignments: written, not
	// read.
	pureWrites := map[ast.Expr]bool{}
	self := c.selfRefs(p)
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					return true
				}
				for _, lhs := range n.Lhs {
					c.write(p, lhs)
					if n.Tok == token.ASSIGN {
						pureWrites[unparen(lhs)] = true
					}
				}
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					for _, x := range []ast.Expr{n.Key, n.Value} {
						if x != nil {
							c.write(p, x)
							pureWrites[unparen(x)] = true
						}
					}
				}
			case *ast.IncDecStmt:
				c.write(p, n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					c.write(p, n.X)
				}
			case *ast.CallExpr:
				c.call(p, n)
			case *ast.CompositeLit:
				c.literal(p, n)
			case *ast.StructType:
				for _, f := range n.Fields.List {
					if f.Tag == nil {
						continue
					}
					if _, ok := reflect.StructTag(strings.Trim(f.Tag.Value, "`")).Lookup("json"); ok {
						// A json tag on any field puts its struct on the wire.
						c.jsonSeeds = append(c.jsonSeeds, p.info.TypeOf(n))
						break
					}
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					c.readAll(p.info.TypeOf(n.X), map[types.Type]bool{})
				}
			case *ast.SelectorExpr:
				if v := c.field(p, n); v != nil && !pureWrites[n] {
					c.read[v] = true
				}
			case *ast.Ident:
				switch obj := p.info.Uses[n].(type) {
				case *types.Const:
					c.read[obj] = true
				case *types.TypeName:
					if !self[n] {
						c.read[obj] = true
					}
				}
			}
			return true
		})
	}
	for _, tv := range p.info.Types {
		if m, ok := tv.Type.(*types.Map); ok {
			c.readAll(m.Key(), map[types.Type]bool{})
		}
	}
}

// selfRefs returns the identifiers by which a named type refers to
// itself: in its own declaration and in its own methods.
func (c *checker) selfRefs(p *pkg) map[*ast.Ident]bool {
	self := map[*ast.Ident]bool{}
	mark := func(root ast.Node, tn types.Object) {
		ast.Inspect(root, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && tn != nil && p.info.Uses[id] == tn {
				self[id] = true
			}
			return true
		})
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				mark(n, p.info.Defs[n.Name])
			case *ast.FuncDecl:
				if n.Recv == nil || len(n.Recv.List) == 0 {
					break
				}
				if id := recvBase(n.Recv.List[0].Type); id != nil {
					mark(n, p.info.Uses[id])
				}
			}
			return true
		})
	}
	return self
}

// recvBase returns the name of a receiver's base type: T in T, *T, T[P]
// or *T[P].
func recvBase(x ast.Expr) *ast.Ident {
	for {
		switch e := unparen(x).(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e
		default:
			return nil
		}
	}
}

// call records a pointer-receiver method call on a field as a write of
// it, and the argument types of encoding/json calls as JSON seeds.
func (c *checker) call(p *pkg, n *ast.CallExpr) {
	sel, ok := unparen(n.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	var fn *types.Func
	if s := p.info.Selections[sel]; s != nil {
		fn, _ = s.Obj().(*types.Func)
		if fn != nil && s.Kind() == types.MethodVal {
			if _, ptr := fn.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
				c.write(p, sel.X)
			}
		}
	} else {
		fn, _ = p.info.Uses[sel.Sel].(*types.Func)
	}
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "encoding/json" {
		for _, a := range n.Args {
			c.jsonSeeds = append(c.jsonSeeds, p.info.TypeOf(a))
		}
	}
}

// literal marks the fields a struct composite literal sets as written.
func (c *checker) literal(p *pkg, n *ast.CompositeLit) {
	t := p.info.TypeOf(n)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range n.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				if v, ok := p.info.Uses[id].(*types.Var); ok {
					c.written[v.Origin()] = true
				}
			}
			continue
		}
		if i < st.NumFields() {
			c.written[st.Field(i).Origin()] = true
		}
	}
}

// readAll marks every field of a struct type, and of the struct types of
// its fields, as read: == and hashing compare them all.
func (c *checker) readAll(t types.Type, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			c.read[u.Field(i).Origin()] = true
			c.readAll(u.Field(i).Type(), seen)
		}
	case *types.Array:
		c.readAll(u.Elem(), seen)
	}
}

// jsonReach marks the exported fields of every struct type that reaches
// encoding/json as read and written.
func (c *checker) jsonReach() {
	queue := append([]types.Type(nil), c.jsonSeeds...)
	seen := map[types.Type]bool{}
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		if t == nil || seen[t] {
			continue
		}
		seen[t] = true
		switch u := t.(type) {
		case *types.Pointer:
			queue = append(queue, u.Elem())
		case *types.Slice:
			queue = append(queue, u.Elem())
		case *types.Array:
			queue = append(queue, u.Elem())
		case *types.Map:
			queue = append(queue, u.Key(), u.Elem())
		case *types.Named:
			queue = append(queue, u.Underlying())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i); f.Exported() {
					c.read[f.Origin()] = true
					c.written[f.Origin()] = true
					queue = append(queue, f.Type())
				}
			}
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
