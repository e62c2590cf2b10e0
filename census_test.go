package mimdraid

// The reference census: every exported identifier of internal/... and every
// exported field of an option struct must have a caller that is not a test.
// Coverage counts a function as covered when its own unit test calls it; the
// census counts only references from non-test files, so code that nothing
// but its tests needs shows up here. scripts/census-baseline.txt lists the
// hits that stay, each with a reason; the test fails on a hit the baseline
// does not list and on a listed entry that is now referenced or gone.

import (
	"bufio"
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// censusConfig names the modules to load (import path → directory) and the
// import-path prefix whose exports the census checks.
type censusConfig struct {
	modules map[string]string
	checked string
}

type censusResult struct {
	// unreferenced: exported identifiers that no non-test file refers to.
	// fields: option-struct fields no non-test file of another package
	// sets or reads. ownOnly: exported identifiers referenced only inside
	// their own package (reported, not gated). All are "<pkg> <ident>".
	unreferenced, fields, ownOnly []string
	exports, optionFields         int
}

// censusOptionTypes are the option structs whose names do not end in
// Options, Config or Model.
var censusOptionTypes = map[string]bool{
	"Actuators":   true,
	"Limits":      true,
	"TenantLimit": true,
	"Iometer":     true,
}

// censusStdInterfaces are the standard-library packages whose interfaces
// exempt a method that implements them (error is in the universe).
var censusStdInterfaces = []string{"fmt", "io", "net", "net/http", "sort"}

type censusLoader struct {
	fset    *token.FileSet
	std     types.Importer
	modules map[string]string
	pkgs    map[string]*types.Package
	infos   map[*types.Package]*types.Info
	order   []*types.Package
}

// dirOf maps an import path into one of the loaded modules.
func (l *censusLoader) dirOf(path string) (string, bool) {
	best := ""
	for mod := range l.modules {
		if (path == mod || strings.HasPrefix(path, mod+"/")) && len(mod) > len(best) {
			best = mod
		}
	}
	if best == "" {
		return "", false
	}
	return filepath.Join(l.modules[best], filepath.FromSlash(strings.TrimPrefix(path, best))), true
}

// Import type-checks a program package from its non-test files, and hands
// everything else to the standard library's source importer.
func (l *censusLoader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := l.dirOf(path)
	if !ok {
		return l.std.Import(path)
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	l.infos[pkg] = info
	l.order = append(l.order, pkg)
	return pkg, nil
}

// The standard library is type-checked from source once per test binary
// and shared by every census run.
var (
	censusOnce sync.Once
	censusFset *token.FileSet
	censusStd  types.Importer
)

// runCensus loads every package of the configured modules and counts, for
// each object, the non-test references from its own package and from others.
func runCensus(cfg censusConfig) (*censusResult, error) {
	censusOnce.Do(func() {
		// The source importer reads build.Default; without cgo it
		// type-checks the pure-Go variants of net and os/user instead of
		// running cgo.
		build.Default.CgoEnabled = false
		censusFset = token.NewFileSet()
		censusStd = importer.ForCompiler(censusFset, "source", nil)
	})
	l := &censusLoader{
		fset:    censusFset,
		std:     censusStd,
		modules: cfg.modules,
		pkgs:    map[string]*types.Package{},
		infos:   map[*types.Package]*types.Info{},
	}
	roots := map[string]bool{}
	for _, dir := range cfg.modules {
		roots[filepath.Clean(dir)] = true
	}
	for mod, root := range cfg.modules {
		err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if dir != root && (roots[filepath.Clean(dir)] || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			rel, err := filepath.Rel(root, dir)
			if err != nil {
				return err
			}
			path := mod
			if rel != "." {
				path += "/" + filepath.ToSlash(rel)
			}
			var noGo *build.NoGoError
			if _, err := l.Import(path); err != nil && !errors.As(err, &noGo) {
				return err
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	type refs struct{ own, ext int }
	count := map[types.Object]*refs{}
	var ifaces []*types.Interface
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			if n, ok := t.(*types.Named); !ok || n.TypeParams() == nil {
				ifaces = append(ifaces, it)
			}
		}
	}
	for _, pkg := range l.order {
		info := l.infos[pkg]
		for _, obj := range info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if obj.Pkg() == nil {
				continue
			}
			r := count[obj]
			if r == nil {
				r = &refs{}
				count[obj] = r
			}
			if obj.Pkg() == pkg {
				r.own++
			} else {
				r.ext++
			}
		}
		for expr, tv := range info.Types {
			if _, ok := expr.(*ast.InterfaceType); ok {
				addIface(tv.Type)
			}
		}
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, path := range censusStdInterfaces {
		p, err := l.std.Import(path)
		if err != nil {
			return nil, err
		}
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				addIface(tn.Type())
			}
		}
	}
	implements := func(t types.Type, method string) bool {
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == method && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
					return true
				}
			}
		}
		return false
	}

	res := &censusResult{}
	check := func(pkg *types.Package, ident string, obj types.Object) {
		res.exports++
		key := pkg.Path() + " " + ident
		switch r := count[obj]; {
		case r == nil:
			res.unreferenced = append(res.unreferenced, key)
		case r.ext == 0:
			res.ownOnly = append(res.ownOnly, key)
		}
	}
	for _, pkg := range l.order {
		if !strings.HasPrefix(pkg.Path(), cfg.checked) {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if obj.Exported() {
				check(pkg, name, obj)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !implements(named, m.Name()) {
					check(pkg, name+"."+m.Name(), m)
				}
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok || !tn.Exported() || !(censusOptionTypes[name] || strings.HasSuffix(name, "Options") ||
				strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Model")) {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() {
					continue
				}
				res.optionFields++
				if r := count[f]; r == nil || r.ext == 0 {
					res.fields = append(res.fields, pkg.Path()+" "+name+"."+f.Name())
				}
			}
		}
	}
	sort.Strings(res.unreferenced)
	sort.Strings(res.fields)
	sort.Strings(res.ownOnly)
	return res, nil
}

// readCensusBaseline parses "<pkg> <ident> # reason" lines.
func readCensusBaseline(t *testing.T, path string) map[string]bool {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	base := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		entry, reason, ok := strings.Cut(line, "#")
		if fields := strings.Fields(entry); !ok || strings.TrimSpace(reason) == "" || len(fields) != 2 {
			t.Errorf("%s:%d: want \"<pkg> <ident> # reason\", got %q", path, n, line)
		} else {
			base[fields[0]+" "+fields[1]] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return base
}

func TestReferenceCensus(t *testing.T) {
	start := time.Now()
	res, err := runCensus(censusConfig{
		modules: map[string]string{"repro": ".", "repro/bench": "bench"},
		checked: "repro/internal/",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d exports and %d option fields checked in %v; %d unreferenced, %d option fields set by no other package, %d used only in their own package",
		res.exports, res.optionFields, time.Since(start).Round(time.Millisecond), len(res.unreferenced), len(res.fields), len(res.ownOnly))
	if testing.Verbose() {
		for _, key := range res.ownOnly {
			t.Logf("own package only: %s", key)
		}
	}
	base := readCensusBaseline(t, "scripts/census-baseline.txt")
	hits := map[string]bool{}
	for _, key := range append(res.unreferenced, res.fields...) {
		hits[key] = true
		if !base[key] {
			t.Errorf("no non-test caller (delete it, unexport it, or list it with a reason in scripts/census-baseline.txt): %s", key)
		}
	}
	for key := range base {
		if !hits[key] {
			t.Errorf("referenced or gone now; drop from scripts/census-baseline.txt: %s", key)
		}
	}
}

func TestReferenceCensusFixture(t *testing.T) {
	res, err := runCensus(censusConfig{
		modules: map[string]string{"fixture": filepath.Join("testdata", "census")},
		checked: "fixture/lib",
	})
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(append(res.unreferenced, res.fields...), ", ")
	if want := "fixture/lib TestOnly, fixture/lib Options.TestOnly"; got != want {
		t.Errorf("census flags %q, want %q", got, want)
	}
}
