package mcn_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// probes lists the exported functions in internal/ that no program calls
// on purpose: each is kept for a named check that will call it.
var probes = map[string]bool{
	// ROADMAP item 3(d)'s leak check: LiveProcs()==0 &&
	// PendingEvents()==0 after every shutdown, over generated runs.
	"sim.Kernel.PendingEvents": true,
}

// TestExportsHaveCallers fails on an exported function or method in
// internal/ that nothing calls: not the module's non-test code (cmd/,
// examples/, benchmark/, the facade, internal/ itself), and not the
// tests of another package. A function that only its own package's
// tests call belongs in those tests. A method counts as called when an
// interface type in the module's non-test code names it, since a call
// through an interface leaves no static reference. Entries in probes are
// exempt, and an entry that no longer needs the exemption fails too.
func TestExportsHaveCallers(t *testing.T) {
	m := loadModule(t)

	var uncalled []string
	stale := map[string]bool{}
	for name := range probes {
		stale[name] = true
	}
	for _, fn := range m.exported {
		name := funcName(fn)
		if m.called[fn] || fn.Signature().Recv() != nil && (m.ifaceNames[fn.Name()] || isStringer(fn)) {
			continue
		}
		if probes[name] {
			delete(stale, name)
			continue
		}
		uncalled = append(uncalled, name)
	}
	sort.Strings(uncalled)
	for _, name := range uncalled {
		t.Errorf("%s: exported, but only its own package's tests (or nothing) call it", name)
	}
	for name := range stale {
		t.Errorf("probes entry %s is stale: it has a caller now, or no longer exists", name)
	}
}

// isStringer reports a String() string or Error() string method: fmt
// calls these through fmt.Stringer and error, which no module code names.
func isStringer(fn *types.Func) bool {
	sig := fn.Signature()
	return (fn.Name() == "String" || fn.Name() == "Error") && sig.Params().Len() == 0 &&
		sig.Results().Len() == 1 && types.Identical(sig.Results().At(0).Type(), types.Typ[types.String])
}

// funcName renders fn as pkg.Func or pkg.Type.Method.
func funcName(fn *types.Func) string {
	name := fn.Pkg().Name() + "." + fn.Name()
	if recv := fn.Signature().Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name = fn.Pkg().Name() + "." + n.Obj().Name() + "." + fn.Name()
		}
	}
	return name
}

type module struct {
	path       string
	fset       *token.FileSet
	std        types.Importer
	dirs       map[string]*pkgDir // by import path
	pkgs       map[string]*types.Package
	exported   []*types.Func        // exported funcs declared in internal/
	called     map[*types.Func]bool // referenced by a counting caller
	ifaceNames map[string]bool      // method names of module interfaces
}

type pkgDir struct {
	path             string
	src, test, xtest []*ast.File
}

// loadModule type-checks every package of the module from source twice:
// once as the program builds it, then with its tests.
func loadModule(t *testing.T) *module {
	t.Helper()
	gomod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	m := &module{
		fset:       token.NewFileSet(),
		std:        importer.Default(),
		dirs:       map[string]*pkgDir{},
		pkgs:       map[string]*types.Package{},
		called:     map[*types.Func]bool{},
		ifaceNames: map[string]bool{},
	}
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			m.path = f[1]
		}
	}
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(m.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		path := m.path
		if dir := filepath.ToSlash(filepath.Dir(p)); dir != "." {
			path += "/" + dir
		}
		d2 := m.dirs[path]
		if d2 == nil {
			d2 = &pkgDir{path: path}
			m.dirs[path] = d2
		}
		switch {
		case !strings.HasSuffix(p, "_test.go"):
			d2.src = append(d2.src, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			d2.xtest = append(d2.xtest, f)
		default:
			d2.test = append(d2.test, f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The program: every use from non-test code counts.
	for path := range m.dirs {
		if _, err := m.importPkg(path); err != nil {
			t.Fatal(err)
		}
	}
	// The tests: a use counts when it crosses packages. Type errors are
	// tolerated here: the test variant of a package is a second copy of
	// it, so its types do not match those other packages were checked
	// against, but every identifier still resolves.
	for _, d := range m.dirs {
		if len(d.test)+len(d.xtest) == 0 {
			continue
		}
		variant := m.check(d.path, append(append([]*ast.File{}, d.src...), d.test...), nil, d.path)
		if len(d.xtest) > 0 {
			m.check(d.path+"_test", d.xtest, variant, d.path)
		}
	}
	return m
}

func (m *module) importPkg(path string) (*types.Package, error) {
	if p := m.pkgs[path]; p != nil {
		return p, nil
	}
	d := m.dirs[path]
	if d == nil {
		return m.std.Import(path)
	}
	var firstErr error
	conf := types.Config{
		Importer: importerFunc(m.importPkg),
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	pkg, _ := conf.Check(path, m.fset, d.src, info)
	if firstErr != nil {
		return nil, firstErr
	}
	m.pkgs[path] = pkg
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			m.called[fn.Origin()] = true
		}
	}
	for expr, tv := range info.Types {
		if _, ok := expr.(*ast.InterfaceType); !ok {
			continue
		}
		if it, ok := tv.Type.(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				m.ifaceNames[it.Method(i).Name()] = true
			}
		}
	}
	if strings.HasPrefix(path, m.path+"/internal/") {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if fn, ok := obj.(*types.Func); ok && fn.Exported() {
				m.exported = append(m.exported, fn)
			}
			if tn, ok := obj.(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok {
					for i := 0; i < n.NumMethods(); i++ {
						if fn := n.Method(i); fn.Exported() {
							m.exported = append(m.exported, fn)
						}
					}
				}
			}
		}
	}
	return pkg, nil
}

// check type-checks one test package and records the uses it makes of
// other packages' functions. self is the package under test, whose own
// functions do not count; variant, when set, stands in for it.
func (m *module) check(path string, files []*ast.File, variant *types.Package, self string) *types.Package {
	conf := types.Config{
		Importer: importerFunc(func(p string) (*types.Package, error) {
			if variant != nil && p == self {
				return variant, nil
			}
			return m.importPkg(p)
		}),
		Error: func(error) {},
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	pkg, _ := conf.Check(path, m.fset, files, info)
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() != self {
			m.called[fn.Origin()] = true
		}
	}
	return pkg
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
