package mcn_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/fstest"
)

// probes lists the exported functions in internal/ that no program calls
// on purpose: each is kept for a named check that will call it.
var probes = map[string]bool{
	// ROADMAP item 3(d)'s leak check: LiveProcs()==0 &&
	// PendingEvents()==0 after every shutdown, over generated runs.
	"sim.Kernel.PendingEvents": true,
}

// TestExportsHaveCallers fails on a function or method in internal/
// that nothing calls: not the module's non-test code (cmd/, examples/,
// benchmark/, the facade, internal/ itself), and, for an exported one,
// not the tests of another package. A function that only its own
// package's tests call belongs in those tests. A method counts as called
// when an interface type in the module's non-test code names it, since a
// call through an interface leaves no static reference. Entries in
// probes are exempt, and an entry that no longer needs the exemption
// fails too. It also fails on a name the root package exports that no
// example and no root test references: the facade is the surface the
// examples use, and cmd/ reaches internal/ directly.
func TestExportsHaveCallers(t *testing.T) {
	m := loadModule(t)

	var uncalled []string
	stale := map[string]bool{}
	for name := range probes {
		stale[name] = true
	}
	for _, fn := range m.funcs {
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
		t.Errorf("%s: only its own package's tests (or nothing) call it", name)
	}
	for name := range stale {
		t.Errorf("probes entry %s is stale: it has a caller now, or no longer exists", name)
	}
	for _, name := range m.unusedRootExports() {
		t.Errorf("mcn.%s: neither examples/ nor a root test references it", name)
	}
}

// unusedRootExports lists the names the root package exports that no
// example and no root test references. A type also passes when the
// signature of a referenced function uses it, so a caller can name what
// it is handed.
func (m *module) unusedRootExports() []string {
	root := m.pkgs[m.path]
	if root == nil {
		return nil
	}
	kept := map[token.Pos]bool{}
	for pos := range m.rootUses {
		kept[pos] = true
		for _, tpos := range m.rootSigs[pos] {
			kept[tpos] = true
		}
	}
	var names []string
	for _, name := range root.Scope().Names() {
		if obj := root.Scope().Lookup(name); obj.Exported() && !kept[obj.Pos()] {
			names = append(names, name)
		}
	}
	return names
}

// TestFieldsHaveReaders fails on a struct field declared in internal/
// that nothing in the module reads, tests included: state the program
// keeps up to date for no reader. Assigning to a field, ++/--, a
// composite-literal key and a read inside its own update (x.f = x.f + d,
// x.f = append(x.f, v)) are writes.
// Reflection and comparison read every field of a json-tagged struct, of
// a value handed to encoding/json or encoding/gob (walked through its
// field types), and of a struct used as a map key.
func TestFieldsHaveReaders(t *testing.T) {
	for _, name := range loadModule(t).unreadFields() {
		t.Errorf("%s: written, but nothing reads it", name)
	}
}

// TestFieldGateFixture pins TestFieldsHaveReaders' rules on a small
// module: exactly the write-only, self-update-only and append-only
// fields are flagged, and not the fields that reflection, a map key, a
// test or a restated anonymous struct type reads.
func TestFieldGateFixture(t *testing.T) {
	fsys := fstest.MapFS{
		"go.mod": {Data: []byte("module fixture\n")},
		"internal/p/p.go": {Data: []byte(`package p

import "encoding/json"

type T struct {
	writeOnly int
	selfOnly  int
	log       []int
	used      int
	testOnly  int
}

type wire struct {
	A int ` + "`json:\"a\"`" + `
	b int
}

type key struct{ x, y int }

type out struct{ N int }

func (t *T) Step(v int) ([]byte, int) {
	t.writeOnly = v
	t.selfOnly = t.selfOnly + v
	t.selfOnly++
	t.log = append(t.log, v)
	t.used += v
	seen := map[key]bool{{1, 2}: true}
	var res any
	res = out{N: len(seen)}
	b, _ := json.Marshal(res)
	w, _ := json.Marshal([]wire{{A: t.used, b: v}})
	return append(b, w...), t.used
}

func twin(v int) int {
	var raw []struct{ n int }
	raw = append(raw, struct{ n int }{v})
	return raw[0].n
}
`)},
		"internal/p/p_test.go": {Data: []byte(`package p

import "testing"

func TestTestOnly(t *testing.T) {
	if x := (T{testOnly: 1}); x.testOnly != 1 {
		t.Fatal(x)
	}
}
`)},
	}
	m, err := newModule(fsys)
	if err != nil {
		t.Fatal(err)
	}
	got := m.unreadFields()
	want := []string{"p.T.log", "p.T.selfOnly", "p.T.writeOnly"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flagged %v, want %v", got, want)
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
	funcs      []*types.Func        // funcs and methods declared in internal/
	called     map[*types.Func]bool // referenced by a counting caller
	ifaceNames map[string]bool      // method names of module interfaces
	// Root-package objects are keyed by their declaring position too:
	// the root tests see the test type-check's copy of the package.
	rootUses map[token.Pos]bool        // referenced from examples/ or a root test
	rootSigs map[token.Pos][]token.Pos // root func -> root types its signature names
	// Fields are keyed by their declaring position: the program and the
	// test type-check of a package create distinct objects for them.
	fields map[token.Pos]field // fields declared in internal/
	read   map[token.Pos]bool  // fields something reads
	walked map[types.Type]bool // types readEncoded walked
}

// field is one struct field declared in internal/.
type field struct {
	name  string
	anon  *types.Struct // the unnamed struct type it belongs to, or nil
	index int
}

type pkgDir struct {
	path             string
	src, test, xtest []*ast.File
}

var loaded struct {
	once sync.Once
	m    *module
	err  error
}

// loadModule returns this module, loaded once per test binary.
func loadModule(t *testing.T) *module {
	t.Helper()
	loaded.once.Do(func() { loaded.m, loaded.err = newModule(os.DirFS(".")) })
	if loaded.err != nil {
		t.Fatal(loaded.err)
	}
	return loaded.m
}

// newModule type-checks every package of the module rooted at fsys from
// source twice: once as the program builds it, then with its tests.
func newModule(fsys fs.FS) (*module, error) {
	gomod, err := fs.ReadFile(fsys, "go.mod")
	if err != nil {
		return nil, err
	}
	m := &module{
		fset:       token.NewFileSet(),
		std:        importer.Default(),
		dirs:       map[string]*pkgDir{},
		pkgs:       map[string]*types.Package{},
		called:     map[*types.Func]bool{},
		ifaceNames: map[string]bool{},
		rootUses:   map[token.Pos]bool{},
		rootSigs:   map[token.Pos][]token.Pos{},
		fields:     map[token.Pos]field{},
		read:       map[token.Pos]bool{},
		walked:     map[types.Type]bool{},
	}
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			m.path = f[1]
		}
	}
	err = fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(m.fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkgPath := m.path
		if dir := path.Dir(p); dir != "." {
			pkgPath += "/" + dir
		}
		d2 := m.dirs[pkgPath]
		if d2 == nil {
			d2 = &pkgDir{path: pkgPath}
			m.dirs[pkgPath] = d2
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
		return nil, err
	}

	// The program: every use from non-test code counts.
	for pkgPath := range m.dirs {
		if _, err := m.importPkg(pkgPath); err != nil {
			return nil, err
		}
	}
	// The tests: a call counts when it crosses packages, a field read
	// always. Type errors are tolerated here: the test variant of a
	// package is a second copy of it, so its types do not match those
	// other packages were checked against, but every identifier still
	// resolves.
	for _, d := range m.dirs {
		if len(d.test)+len(d.xtest) == 0 {
			continue
		}
		variant := m.check(d.path, append(append([]*ast.File{}, d.src...), d.test...), nil, d.path)
		if len(d.xtest) > 0 {
			m.check(d.path+"_test", d.xtest, variant, d.path)
		}
	}
	return m, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
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
	info := newInfo()
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
	m.useRoot(info)
	if path == m.path {
		for _, f := range d.src {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
					m.rootSigs[fd.Name.Pos()] = m.rootTypes(fd.Type, info)
				}
			}
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
	m.readFields(d.src, info)
	if strings.HasPrefix(path, m.path+"/internal/") {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if fn, ok := obj.(*types.Func); ok {
				m.funcs = append(m.funcs, fn)
			}
			if tn, ok := obj.(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok {
					for i := 0; i < n.NumMethods(); i++ {
						m.funcs = append(m.funcs, n.Method(i))
					}
				}
			}
		}
		for _, f := range d.src {
			m.declareFields(pkg.Name(), f, info)
		}
	}
	return pkg, nil
}

// check type-checks one test package and records the field reads it
// makes and the calls it makes to other packages' functions. self is the
// package under test, whose own functions do not count; variant, when
// set, stands in for it.
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
	info := newInfo()
	pkg, _ := conf.Check(path, m.fset, files, info)
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() != self {
			m.called[fn.Origin()] = true
		}
	}
	m.useRoot(info)
	m.readFields(files, info)
	return pkg
}

// useRoot records the root package's names that info's files in
// examples/ or the root tests reference.
func (m *module) useRoot(info *types.Info) {
	for id, obj := range info.Uses {
		if obj.Pkg() == nil || obj.Pkg().Path() != m.path || obj.Parent() != obj.Pkg().Scope() {
			continue
		}
		file := m.fset.Position(id.Pos()).Filename
		if strings.HasPrefix(file, "examples/") || path.Dir(file) == "." && strings.HasSuffix(file, "_test.go") {
			m.rootUses[obj.Pos()] = true
		}
	}
}

// rootTypes returns the declaring positions of the root-package types
// that the function type ft names.
func (m *module) rootTypes(ft *ast.FuncType, info *types.Info) []token.Pos {
	var pos []token.Pos
	ast.Inspect(ft, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if tn, ok := info.Uses[id].(*types.TypeName); ok && tn.Pkg() != nil && tn.Pkg().Path() == m.path {
				pos = append(pos, tn.Pos())
			}
		}
		return true
	})
	return pos
}

// declareFields records every struct field f declares, named
// pkg.Type.field, or pkg.struct@file:line.field in an unnamed struct type.
func (m *module) declareFields(pkg string, f *ast.File, info *types.Info) {
	named := map[*ast.StructType]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			if st, ok := n.Type.(*ast.StructType); ok {
				named[st] = pkg + "." + n.Name.Name
			}
		case *ast.StructType:
			st := info.TypeOf(n).(*types.Struct)
			prefix, anon := named[n], (*types.Struct)(nil)
			if prefix == "" {
				pos := m.fset.Position(n.Pos())
				prefix, anon = fmt.Sprintf("%s.struct@%s:%d", pkg, path.Base(pos.Filename), pos.Line), st
			}
			for i := 0; i < st.NumFields(); i++ {
				if v := st.Field(i); v.Name() != "_" {
					m.fields[v.Pos()] = field{prefix + "." + v.Name(), anon, i}
				}
			}
		}
		return true
	})
}

// readFields marks the fields that files, type-checked into info, read.
func (m *module) readFields(files []*ast.File, info *types.Info) {
	writes := map[*ast.SelectorExpr]bool{}
	stored := map[types.Object][]types.Type{} // interface variables: the types assigned to them
	var encoded []ast.Expr
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					written := writeTargets(lhs, info, writes)
					if len(n.Lhs) != len(n.Rhs) {
						continue
					}
					selfReads(n.Rhs[i], written, info, writes)
					if id, ok := lhs.(*ast.Ident); ok {
						if obj := info.ObjectOf(id); obj != nil && types.IsInterface(obj.Type()) {
							stored[obj] = append(stored[obj], info.TypeOf(n.Rhs[i]))
						}
					}
				}
			case *ast.IncDecStmt:
				writeTargets(n.X, info, writes)
			case *ast.CallExpr:
				if fn, ok := callee(n, info).(*types.Func); ok && fn.Pkg() != nil &&
					(fn.Pkg().Path() == "encoding/json" || fn.Pkg().Path() == "encoding/gob") &&
					(fn.Name() == "Marshal" || fn.Name() == "MarshalIndent" || fn.Name() == "Encode") {
					encoded = append(encoded, n.Args[0])
				}
			case *ast.StructType:
				st, _ := info.TypeOf(n).(*types.Struct)
				for i := 0; st != nil && i < st.NumFields(); i++ {
					if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
						m.readEncoded(st)
						break
					}
				}
			case *ast.MapType:
				if mt, ok := info.TypeOf(n).(*types.Map); ok {
					if _, ok := mt.Key().Underlying().(*types.Struct); ok {
						m.readKey(mt.Key())
					}
				}
			}
			return true
		})
	}
	for _, e := range encoded {
		t := info.TypeOf(e)
		if id, ok := ast.Unparen(e).(*ast.Ident); ok && types.IsInterface(t) {
			for _, t := range stored[info.ObjectOf(id)] {
				m.readEncoded(t)
			}
			continue
		}
		m.readEncoded(t)
	}
	for sel, s := range info.Selections {
		// A promoted field or method reads the embedded fields it goes
		// through.
		t := s.Recv()
		for _, i := range s.Index()[:len(s.Index())-1] {
			st := structOf(t)
			if st == nil {
				break
			}
			m.read[st.Field(i).Pos()] = true
			t = st.Field(i).Type()
		}
		if s.Kind() == types.FieldVal && !writes[sel] {
			m.read[s.Obj().Pos()] = true
		}
	}
}

// readEncoded marks every field of t read, as encoding/json or gob
// reads a value of type t: through pointers, elements, map keys, and the
// fields they encode (exported, not tagged json:"-").
func (m *module) readEncoded(t types.Type) {
	if t == nil || m.walked[t] {
		return
	}
	m.walked[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		m.readEncoded(u.Elem())
	case *types.Slice:
		m.readEncoded(u.Elem())
	case *types.Array:
		m.readEncoded(u.Elem())
	case *types.Map:
		m.readEncoded(u.Key())
		m.readEncoded(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			v := u.Field(i)
			m.read[v.Pos()] = true
			if v.Exported() && reflect.StructTag(u.Tag(i)).Get("json") != "-" {
				m.readEncoded(v.Type())
			}
		}
	}
}

// readKey marks every field read that hashing a map key of type t
// compares: its fields and array elements, and theirs, but not what a
// pointer points to.
func (m *module) readKey(t types.Type) {
	switch u := t.Underlying().(type) {
	case *types.Array:
		m.readKey(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			m.read[u.Field(i).Pos()] = true
			m.readKey(u.Field(i).Type())
		}
	}
}

// unreadFields lists the fields declared in internal/ that nothing reads.
// A field of an unnamed struct type also counts as read when the same
// field of an identical type spelled out elsewhere is: a struct literal
// restates the type of the variable it fills.
func (m *module) unreadFields() []string {
	var names []string
	for pos, f := range m.fields {
		if !m.read[pos] && !m.twinRead(f) {
			names = append(names, f.name)
		}
	}
	sort.Strings(names)
	return names
}

func (m *module) twinRead(f field) bool {
	if f.anon == nil {
		return false
	}
	for pos, g := range m.fields {
		if m.read[pos] && g.anon != nil && g.index == f.index && types.Identical(g.anon, f.anon) {
			return true
		}
	}
	return false
}

// writeTargets marks the field selectors that assigning to e writes: e
// itself, and the fields holding the element or struct it names, up to
// the first pointer. It returns their fields.
func writeTargets(e ast.Expr, info *types.Info, writes map[*ast.SelectorExpr]bool) []*types.Var {
	var fields []*types.Var
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			s := info.Selections[x]
			if s == nil || s.Kind() != types.FieldVal {
				return fields
			}
			writes[x] = true
			fields = append(fields, s.Obj().(*types.Var))
			e = x.X
		default:
			return fields
		}
		if t := info.TypeOf(e); t == nil || isPointer(t) {
			return fields
		}
	}
}

// selfReads marks as writes the reads of fields inside their own update:
// the operands of arithmetic, slicing and append in an assignment's
// right-hand side that name a field the left-hand side writes.
func selfReads(e ast.Expr, fields []*types.Var, info *types.Info, writes map[*ast.SelectorExpr]bool) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		selfReads(x.X, fields, info, writes)
	case *ast.BinaryExpr:
		selfReads(x.X, fields, info, writes)
		selfReads(x.Y, fields, info, writes)
	case *ast.SliceExpr:
		selfReads(x.X, fields, info, writes)
	case *ast.CallExpr:
		if b, ok := callee(x, info).(*types.Builtin); ok && b.Name() == "append" {
			for _, arg := range x.Args {
				selfReads(arg, fields, info, writes)
			}
		}
	case *ast.SelectorExpr:
		if s := info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
			for _, v := range fields {
				if v.Pos() == s.Obj().Pos() {
					writes[x] = true
					selfReads(x.X, fields, info, writes)
				}
			}
		}
	}
}

// callee returns the function or builtin a call names, or nil.
func callee(call *ast.CallExpr, info *types.Info) types.Object {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[f]
	case *ast.SelectorExpr:
		return info.Uses[f.Sel]
	}
	return nil
}

func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

// structOf returns the struct type under t or under the type t points
// to, or nil.
func structOf(t types.Type) *types.Struct {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
