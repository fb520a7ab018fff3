// Command lintexports fails when a function or method under a module's
// internal/ directory, exported or not, has no caller in a non-test file.
//
// It type-checks the non-test files of every package in the given modules
// (standard library only: go list, go/parser, go/types) and counts a
// function as called when a non-test file outside its own body refers to
// it. A method also counts as called when its type satisfies an interface
// whose method some non-test file calls, or any exported standard-library
// interface (fmt calls String, sort calls Less, and so on). Each finding
// must be listed in the allow file with one of four reasons:
//
//	<package dir> <Func or Type.Method> <kept|next:<direction>|oracle|table-I>: <why>
//
// An allow line that names no function, or one that now has a caller,
// fails the scan too. Run it from the repository root:
//
//	go run ./tools/lintexports -allow tools/lintexports/allow.txt . benchmark
//
// The first module is the one whose internal/ is swept; the others count
// only as callers.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	allow := flag.String("allow", "", "allow-list file (empty: none)")
	flag.Parse()
	modules := flag.Args()
	if len(modules) == 0 {
		modules = []string{"."}
	}
	uncalled, declared, err := scan(modules)
	var problems []string
	if err == nil {
		problems, err = check(uncalled, declared, *allow)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lint-exports:", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Println("lint-exports:", p)
	}
	if len(problems) > 0 {
		fmt.Printf("lint-exports: %d problem(s); give each function a non-test caller, delete it, or allow-list it with a reason\n", len(problems))
		os.Exit(1)
	}
}

// check returns one line per problem: an uncalled function the allow file
// does not list, and an allow line that is malformed, names no function, or
// names one that has a caller.
func check(uncalled map[string]string, declared map[string]bool, allowPath string) ([]string, error) {
	allowed := map[string]bool{}
	var problems []string
	if allowPath != "" {
		lines, err := readAllow(allowPath)
		if err != nil {
			return nil, err
		}
		for _, l := range lines {
			switch {
			case l.err != "":
				problems = append(problems, fmt.Sprintf("%s:%d: %s", allowPath, l.line, l.err))
			case !declared[l.key]:
				problems = append(problems, fmt.Sprintf("%s:%d: %s: no such function", allowPath, l.line, l.key))
			case uncalled[l.key] == "":
				problems = append(problems, fmt.Sprintf("%s:%d: %s: has a non-test caller now; delete the line", allowPath, l.line, l.key))
			}
			allowed[l.key] = true
		}
	}
	keys := make([]string, 0, len(uncalled))
	for k := range uncalled {
		if !allowed[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		problems = append(problems, fmt.Sprintf("%s: %s has no non-test caller", uncalled[k], k))
	}
	return problems, nil
}

type allowLine struct {
	line int
	key  string
	err  string
}

// readAllow parses the allow file; blank lines and # comments are skipped.
func readAllow(path string) ([]allowLine, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []allowLine
	for i, raw := range strings.Split(string(data), "\n") {
		text := strings.TrimSpace(raw)
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		l := allowLine{line: i + 1}
		f := strings.Fields(text)
		if len(f) >= 2 {
			l.key = f[0] + " " + f[1]
		}
		if len(f) < 4 || !validReason(f[2]) {
			l.err = "want <package dir> <name> <kept:|next:<direction>:|oracle:|table-I:> <why>"
		}
		out = append(out, l)
	}
	return out, nil
}

func validReason(tag string) bool {
	switch tag {
	case "kept:", "oracle:", "table-I:":
		return true
	}
	return strings.HasPrefix(tag, "next:") && strings.HasSuffix(tag, ":") && len(tag) > len("next::")
}

// listed is the part of `go list -json` the scan reads.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Module     *struct{ Dir string }
}

type pkg struct {
	listed
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// scan returns the uncalled functions of modules[0]'s internal/ (key →
// position) and the set of all its function keys. A key is "<package dir
// relative to the module> <Func|Type.Method>". init functions, which
// nothing can call, are skipped.
func scan(modules []string) (map[string]string, map[string]bool, error) {
	// The source importer reads the standard library with go/build's
	// defaults; without cgo it needs no C toolchain.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	pkgs := map[string]*pkg{}
	var order []string
	for _, dir := range modules {
		cmd := exec.Command("go", "list", "-json", "./...")
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, nil, fmt.Errorf("go list in %s: %w", dir, err)
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for dec.More() {
			var l listed
			if err := dec.Decode(&l); err != nil {
				return nil, nil, err
			}
			if _, dup := pkgs[l.ImportPath]; !dup {
				pkgs[l.ImportPath] = &pkg{listed: l}
				order = append(order, l.ImportPath)
			}
		}
	}

	std := importer.ForCompiler(fset, "source", nil)
	var check func(path string) (*types.Package, error)
	check = func(path string) (*types.Package, error) {
		p := pkgs[path]
		if p == nil {
			return std.Import(path)
		}
		if p.types != nil {
			return p.types, nil
		}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		p.info = &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: importerFunc(check)}
		tp, err := conf.Check(path, fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		p.types = tp
		return tp, nil
	}
	for _, path := range order {
		if _, err := check(path); err != nil {
			return nil, nil, err
		}
	}

	// Every reference from a non-test file, except a function's own body
	// referring to itself.
	called := map[*types.Func]bool{}
	ifaces := map[*types.Interface]bool{}
	for _, path := range order {
		p := pkgs[path]
		for _, f := range p.files {
			for _, d := range f.Decls {
				var self types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = p.info.Defs[fd.Name]
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if fn, ok := p.info.Uses[id].(*types.Func); ok && fn != self {
						called[fn.Origin()] = true
					}
					return true
				})
			}
		}
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces[it] = true
			}
		}
	}
	for _, it := range stdInterfaces(pkgs, order) {
		ifaces[it] = true
	}

	uncalled := map[string]string{}
	declared := map[string]bool{}
	root := pkgs[order[0]].Module.Dir
	for _, path := range order {
		p := pkgs[path]
		rel, err := filepath.Rel(root, p.Dir)
		if err != nil || p.Module == nil || p.Module.Dir != root || !(rel == "internal" || strings.HasPrefix(rel, "internal"+string(filepath.Separator))) {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				key := filepath.ToSlash(rel) + " " + fd.Name.Name
				if recv := receiver(fn); recv != nil {
					key = filepath.ToSlash(rel) + " " + recv.Obj().Name() + "." + fd.Name.Name
				}
				declared[key] = true
				if called[fn] || satisfies(fn, ifaces, called, pkgs) {
					continue
				}
				uncalled[key] = fset.Position(fd.Pos()).String()
			}
		}
	}
	return uncalled, declared, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// receiver returns the named type a method is declared on (nil for a
// function).
func receiver(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// satisfies reports whether method fn is reached through an interface: its
// receiver type implements one whose same-named method is called (a module
// interface) or which the standard library may call (no calls recorded).
func satisfies(fn *types.Func, ifaces map[*types.Interface]bool, called map[*types.Func]bool, pkgs map[string]*pkg) bool {
	recv := receiver(fn)
	if recv == nil {
		return false
	}
	for it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			if m.Name() != fn.Name() {
				continue
			}
			if m.Pkg() != nil && pkgs[m.Pkg().Path()] != nil && !called[m] {
				continue
			}
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
	}
	return false
}

// stdInterfaces returns every exported interface type of every public
// standard-library package the modules reach.
func stdInterfaces(pkgs map[string]*pkg, order []string) []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Package]bool{}
	var walk func(tp *types.Package)
	walk = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, imp := range tp.Imports() {
			walk(imp)
		}
		if pkgs[tp.Path()] != nil || strings.Contains(tp.Path(), "internal") {
			return
		}
		scope := tp.Scope()
		for _, name := range scope.Names() {
			obj, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !obj.Exported() {
				continue
			}
			if it, ok := obj.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
	}
	for _, path := range order {
		walk(pkgs[path].types)
	}
	return out
}
