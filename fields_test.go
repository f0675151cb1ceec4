package aa_test

import (
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
	"testing"
)

// fieldAllowlist names the structs whose flagged fields stay on
// purpose, each with its reason.
var fieldAllowlist = map[string]string{
	"check.DiffOptions": "the options of the check.Differential oracle, which tests configure and no program runs",
	"utility.Min":       "a utility combinator the model-property tests build; no program composes utilities",
	"utility.Offset":    "a utility combinator the model-property and priced-Assign2 tests build",
	"utility.Scaled":    "a utility combinator the model-property tests build",
	"utility.Sum":       "a utility combinator the model-property tests build",
}

// TestExportedFieldsHaveCallers is the field guard: every exported
// field of an exported struct declared in non-test Go under internal/
// must be both set (a composite-literal key, an assignment, an element
// store or an address taken) and read somewhere in the non-test Go of
// the repository — internal/, cmd/, examples/, perfbench/ and aa.go all
// count. A field no program sets is a setting with one value, which
// belongs in a constant; a field no program reads is work done for
// nobody. Fields with a json tag are wire format (encoding/json sets
// and reads them) and are skipped. The sources are type-checked, so a
// selector counts only for the struct it resolves to, whatever other
// type shares the field's name. The guard sees syntax, not data flow:
// a value that is only copied from one field into another and back
// counts as read. An allowlist entry the guard no longer flags fails
// too, so the list cannot go stale.
func TestExportedFieldsHaveCallers(t *testing.T) {
	ld := newSourceLoader(t)
	var dirs []string
	for _, top := range []string{"internal", "cmd", "examples", "perfbench"} {
		err := filepath.WalkDir(top, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && path != top && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			if d.IsDir() {
				dirs = append(dirs, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	dirs = append(dirs, ".")
	for _, dir := range dirs {
		ld.loadDir(dir)
	}

	// The candidates: exported fields of exported structs in internal/.
	type field struct {
		typ, name string // "pkg.Type" and "pkg.Type.Field"
		set, get  int
	}
	fields := map[*types.Var]*field{}
	for _, p := range ld.pkgs {
		if !strings.HasPrefix(p.dir, "internal"+string(filepath.Separator)) {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() || f.Embedded() {
					continue
				}
				if _, tagged := reflect.StructTag(st.Tag(i)).Lookup("json"); tagged {
					continue
				}
				typ := p.types.Name() + "." + name
				fields[f] = &field{typ: typ, name: typ + "." + f.Name()}
			}
		}
	}

	for _, p := range ld.pkgs {
		for _, f := range p.files {
			countFieldUses(ld.info, f, func(v *types.Var, set, get bool) {
				if c := fields[v]; c != nil {
					if set {
						c.set++
					}
					if get {
						c.get++
					}
				}
			})
		}
	}

	var flagged []string
	seen := map[string]bool{}
	for _, c := range fields {
		var why string
		switch {
		case c.set == 0 && c.get == 0:
			why = "never set or read"
		case c.set == 0:
			why = "never set"
		case c.get == 0:
			why = "never read"
		default:
			continue
		}
		seen[c.typ] = true
		if _, ok := fieldAllowlist[c.typ]; !ok {
			flagged = append(flagged, c.name+" ("+why+")")
		}
	}
	sort.Strings(flagged)
	for _, line := range flagged {
		t.Errorf("exported field with no caller (make it a constant, or delete it): %s", line)
	}
	for typ := range fieldAllowlist {
		if !seen[typ] {
			t.Errorf("allowlisted struct the guard no longer flags (drop it from the allowlist): %s", typ)
		}
	}
}

// countFieldUses reports each struct-field reference in f as a set, a
// read, or both (an address taken, a compound assignment). A default
// fill — `if o.F <= 0 { o.F = d }`, an assignment in an if body to a
// field its condition reads — is neither: it is the declaring code
// choosing the value no caller gave.
func countFieldUses(info *types.Info, f *ast.File, use func(v *types.Var, set, get bool)) {
	// sets holds the selectors written to (or default-filled), so the
	// generic visit below does not count them again as reads.
	sets := map[*ast.SelectorExpr]bool{}
	selField := func(e ast.Expr) (*ast.SelectorExpr, *types.Var) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil, nil
		}
		s := info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return nil, nil
		}
		return sel, s.Obj().(*types.Var)
	}
	write := func(e ast.Expr, alsoRead bool) {
		if ix, ok := ast.Unparen(e).(*ast.IndexExpr); ok {
			// An element store sets the field's contents.
			e, alsoRead = ix.X, true
		}
		if sel, v := selField(e); v != nil {
			sets[sel] = true
			use(v, true, alsoRead)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			tested := map[*types.Var]bool{}
			ast.Inspect(n.Cond, func(c ast.Node) bool {
				if e, ok := c.(ast.Expr); ok {
					if _, v := selField(e); v != nil {
						tested[v] = true
					}
				}
				return true
			})
			for _, st := range n.Body.List {
				if as, ok := st.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN {
					for _, lhs := range as.Lhs {
						if sel, v := selField(lhs); tested[v] {
							sets[sel] = true
						}
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && sets[sel] {
					continue
				}
				write(lhs, n.Tok != token.ASSIGN && n.Tok != token.DEFINE)
			}
		case *ast.IncDecStmt:
			write(n.X, true)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				write(n.X, true)
			}
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				write(n.Key, false)
				if n.Value != nil {
					write(n.Value, false)
				}
			}
		case *ast.CompositeLit:
			st, ok := underlyingStruct(info.TypeOf(n))
			if !ok {
				return true
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
							use(v, true, false)
						}
					}
				} else if i < st.NumFields() {
					use(st.Field(i), true, false)
				}
			}
		case *ast.SelectorExpr:
			if sets[n] {
				return true
			}
			if _, v := selField(n); v != nil {
				use(v, false, true)
			}
		}
		return true
	})
}

func underlyingStruct(t types.Type) (*types.Struct, bool) {
	if t == nil {
		return nil, false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// sourceLoader type-checks the repository's packages from source (the
// standard library comes from the toolchain's importer), sharing one
// types.Info so a selector in any package resolves to the one
// *types.Var of the field it names.
type sourceLoader struct {
	t    *testing.T
	fset *token.FileSet
	std  types.Importer
	info *types.Info
	// byPath maps an import path to its loaded package; pkgs lists them
	// in load order.
	byPath map[string]*loadedPkg
	pkgs   []*loadedPkg
}

type loadedPkg struct {
	dir   string
	files []*ast.File
	types *types.Package
}

func newSourceLoader(t *testing.T) *sourceLoader {
	fset := token.NewFileSet()
	return &sourceLoader{
		t:    t,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		info: &types.Info{
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
		},
		byPath: map[string]*loadedPkg{},
	}
}

// importPath maps a repository directory to its import path: the root
// module is "aa", and perfbench is its own module "aa/perfbench".
func importPath(dir string) string {
	if dir == "." {
		return "aa"
	}
	return "aa/" + filepath.ToSlash(dir)
}

func (ld *sourceLoader) Import(path string) (*types.Package, error) {
	if path == "aa" || strings.HasPrefix(path, "aa/") {
		dir := "."
		if path != "aa" {
			dir = filepath.FromSlash(strings.TrimPrefix(path, "aa/"))
		}
		p := ld.loadDir(dir)
		if p == nil {
			return nil, fmt.Errorf("no Go package in %s", dir)
		}
		return p.types, nil
	}
	return ld.std.Import(path)
}

// loadDir parses and type-checks the non-test Go files of dir that the
// default build context selects; nil when there are none.
func (ld *sourceLoader) loadDir(dir string) *loadedPkg {
	path := importPath(dir)
	if p, ok := ld.byPath[path]; ok {
		return p
	}
	ld.byPath[path] = nil // an import cycle reads as a missing package
	entries, err := os.ReadDir(dir)
	if err != nil {
		ld.t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			ld.t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil
	}
	conf := types.Config{Importer: ld}
	tp, err := conf.Check(path, ld.fset, files, ld.info)
	if err != nil {
		ld.t.Fatalf("type-check %s: %v", dir, err)
	}
	p := &loadedPkg{dir: dir, files: files, types: tp}
	ld.byPath[path] = p
	ld.pkgs = append(ld.pkgs, p)
	return p
}
