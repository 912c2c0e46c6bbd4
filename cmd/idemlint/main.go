// Command idemlint is the repo's determinism linter. The compiler
// pipeline must be a pure function of its input — the whole build cache
// and the replay/verification machinery key on that — so any pass that
// iterates a Go map in unspecified order and lets that order reach
// order-sensitive state (an appended slice, a string being built, an
// emitted instruction stream) is a latent nondeterminism bug, even when
// today's runtime happens to iterate small maps stably.
//
// The linter flags every `range` over a map inside the pass packages
// (internal/{ssa,cfg,dataflow,alias,redelim,multicut,regalloc,codegen,core})
// and the translation validator (internal/verify), whose reports must be
// as reproducible as the builds they check, whose body writes an
// order-sensitive sink:
//
//   - appends to a slice declared outside the loop,
//   - builds a string (+=, or Write* on a strings.Builder/bytes.Buffer
//     declared outside the loop),
//   - prints (fmt.Print*/Fprint*/Sprint* and friends).
//
// A finding is suppressed when the enclosing function visibly restores
// the order — a sort.* call after the loop mentioning the same slice —
// or when the loop carries a `//idemlint:ordered` annotation (same line
// or the line above), which asserts the consumer sorts or is itself
// order-insensitive. Order-insensitive map writes, set inserts,
// commutative accumulation (counters, min/max over keys compared
// explicitly) and worklist refills are not flagged.
//
// Usage: idemlint [-root dir] [packages...]; exits 1 if any finding
// survives. Wired into `make lint` (and through it `make test`).
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// defaultTargets are the compiler-pass packages whose output feeds the
// deterministic build contract (docs/determinism: same module, same
// options, same instruction stream), plus the validator that re-proves
// every build (same program, same report).
var defaultTargets = []string{
	"internal/ssa", "internal/cfg", "internal/dataflow", "internal/alias",
	"internal/redelim", "internal/multicut", "internal/regalloc",
	"internal/codegen", "internal/core", "internal/verify",
}

func main() {
	root := flag.String("root", ".", "repository root (directory containing go.mod)")
	flag.Parse()
	targets := flag.Args()
	if len(targets) == 0 {
		targets = defaultTargets
	}
	findings, err := run(*root, targets)
	if err != nil {
		fmt.Fprintln(os.Stderr, "idemlint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "idemlint: %d order-sensitive map iteration(s); sort before consuming or annotate //idemlint:ordered\n", len(findings))
		os.Exit(1)
	}
}

// run lints each target package directory (relative to root) and
// returns the findings as "file:line:col: message" strings, sorted.
func run(root string, targets []string) ([]string, error) {
	ld := newLoader(root)
	var findings []string
	for _, rel := range targets {
		pkg, err := ld.load("idemproc/" + filepath.ToSlash(rel))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", rel, err)
		}
		findings = append(findings, lintPackage(ld.fset, pkg)...)
	}
	sort.Strings(findings)
	return findings, nil
}

// loader type-checks idemproc packages from source, resolving stdlib
// imports through the source importer so the tool needs nothing beyond
// GOROOT and the repo checkout.
type loader struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	cache map[string]*checkedPkg
}

type checkedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
	err   error
}

func newLoader(root string) *loader {
	fset := token.NewFileSet()
	return &loader{
		root:  root,
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		cache: map[string]*checkedPkg{},
	}
}

// Import implements types.Importer over the loader, so idemproc
// packages can import each other during type-checking.
func (ld *loader) Import(path string) (*types.Package, error) {
	if strings.HasPrefix(path, "idemproc/") {
		cp, err := ld.loadChecked(path)
		if err != nil {
			return nil, err
		}
		return cp.pkg, nil
	}
	return ld.std.Import(path)
}

func (ld *loader) load(path string) (*checkedPkg, error) { return ld.loadChecked(path) }

func (ld *loader) loadChecked(path string) (*checkedPkg, error) {
	if cp, ok := ld.cache[path]; ok {
		return cp, cp.err
	}
	// Seed the cache before checking so an import cycle fails loudly
	// instead of recursing forever.
	cp := &checkedPkg{err: fmt.Errorf("import cycle through %s", path)}
	ld.cache[path] = cp

	dir := filepath.Join(ld.root, strings.TrimPrefix(path, "idemproc/"))
	ents, err := os.ReadDir(dir)
	if err != nil {
		cp.err = err
		return cp, err
	}
	var files []*ast.File
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			cp.err = err
			return cp, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		cp.err = fmt.Errorf("no Go files in %s", dir)
		return cp, cp.err
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: ld}
	pkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		cp.err = err
		return cp, err
	}
	cp.pkg, cp.files, cp.info, cp.err = pkg, files, info, nil
	return cp, nil
}

// lintPackage walks every function in the package looking for map
// ranges with order-sensitive bodies.
func lintPackage(fset *token.FileSet, cp *checkedPkg) []string {
	var findings []string
	for _, file := range cp.files {
		annotated := annotationLines(fset, file)
		ast.Inspect(file, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			findings = append(findings, lintFunc(fset, cp.info, fn, annotated)...)
			return true
		})
	}
	return findings
}

// annotationLines collects the line numbers carrying an
// `//idemlint:ordered` comment; a range on that line or the next is
// exempt (the author asserts ordering is restored before use).
func annotationLines(fset *token.FileSet, file *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, "idemlint:ordered") {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

func lintFunc(fset *token.FileSet, info *types.Info, fn *ast.FuncDecl, annotated map[int]bool) []string {
	var findings []string
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		line := fset.Position(rs.For).Line
		if annotated[line] || annotated[line-1] {
			return true
		}
		for _, sink := range orderSinks(info, rs) {
			if sink.obj != nil && sortedAfter(info, fn.Body, rs, sink.obj) {
				continue
			}
			pos := fset.Position(rs.For)
			findings = append(findings, fmt.Sprintf(
				"%s:%d:%d: range over map %s feeds order-sensitive %s; sort first or annotate //idemlint:ordered",
				pos.Filename, pos.Line, pos.Column, exprString(rs.X), sink.what))
		}
		return true
	})
	return findings
}

// sink is one order-sensitive write found in a range body. obj, when
// non-nil, is the slice/string object written — used to look for a
// later sort of the same object.
type sink struct {
	what string
	obj  types.Object
}

// orderSinks reports the order-sensitive writes in the loop body. At
// most one finding per loop: the first sink read top-down is enough to
// demand a sort, and one diagnostic per site keeps the report usable.
func orderSinks(info *types.Info, rs *ast.RangeStmt) []sink {
	var sinks []sink
	add := func(s sink) {
		if len(sinks) == 0 {
			sinks = append(sinks, s)
		}
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltin(info, call, "append") || i >= len(n.Lhs) {
					continue
				}
				if obj := outerObject(info, n.Lhs[i], rs); obj != nil {
					add(sink{what: fmt.Sprintf("append to %s", obj.Name()), obj: obj})
				}
			}
			// String building: s += ..., s = s + ... on an outer string.
			if len(n.Lhs) == 1 && (n.Tok == token.ADD_ASSIGN || n.Tok == token.ASSIGN) {
				if obj := outerObject(info, n.Lhs[0], rs); obj != nil && isString(obj.Type()) {
					if n.Tok == token.ADD_ASSIGN || selfConcat(info, n.Lhs[0], n.Rhs[0]) {
						add(sink{what: fmt.Sprintf("string build of %s", obj.Name()), obj: obj})
					}
				}
			}
		case *ast.CallExpr:
			if name, ok := printCall(info, n); ok {
				add(sink{what: name})
			} else if obj, name, ok := writerCall(info, n, rs); ok {
				add(sink{what: fmt.Sprintf("%s on %s", name, obj.Name()), obj: obj})
			}
		}
		return true
	})
	return sinks
}

// outerObject resolves an lvalue identifier declared outside the range
// statement (writes to loop-local state can't leak iteration order).
func outerObject(info *types.Info, e ast.Expr, rs *ast.RangeStmt) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := info.ObjectOf(id)
	if obj == nil || (obj.Pos() >= rs.Pos() && obj.Pos() < rs.End()) {
		return nil
	}
	return obj
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// selfConcat reports whether rhs is a + expression mentioning lhs
// (s = s + x and s = x + s both depend on iteration order).
func selfConcat(info *types.Info, lhs ast.Expr, rhs ast.Expr) bool {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.ObjectOf(id)
	bin, ok := rhs.(*ast.BinaryExpr)
	if !ok || bin.Op != token.ADD || obj == nil {
		return false
	}
	found := false
	ast.Inspect(bin, func(n ast.Node) bool {
		if rid, ok := n.(*ast.Ident); ok && info.ObjectOf(rid) == obj {
			found = true
		}
		return !found
	})
	return found
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.ObjectOf(id).(*types.Builtin)
	return ok
}

// printCall reports fmt print/format calls, which serialize iteration
// order straight into output.
func printCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	pkgID, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.ObjectOf(pkgID).(*types.PkgName)
	if !ok || pn.Imported().Path() != "fmt" {
		return "", false
	}
	switch sel.Sel.Name {
	case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf",
		"Sprint", "Sprintln", "Sprintf", "Append", "Appendf", "Appendln":
		return "fmt." + sel.Sel.Name, true
	}
	return "", false
}

// writerCall reports Write* method calls on an outer strings.Builder
// or bytes.Buffer (the two stdlib accumulators the passes use).
func writerCall(info *types.Info, call *ast.CallExpr, rs *ast.RangeStmt) (types.Object, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !strings.HasPrefix(sel.Sel.Name, "Write") {
		return nil, "", false
	}
	obj := outerObject(info, sel.X, rs)
	if obj == nil {
		return nil, "", false
	}
	t := obj.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil, "", false
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case "strings.Builder", "bytes.Buffer":
		return obj, named.Obj().Name() + "." + sel.Sel.Name, true
	}
	return nil, "", false
}

// sortedAfter reports whether a sort.* call mentioning obj appears in
// the function after the range loop — the collect-then-sort idiom,
// which is exactly the fix the linter wants.
func sortedAfter(info *types.Info, body *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || found {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if pn, ok := info.ObjectOf(pkgID).(*types.PkgName); !ok || pn.Imported().Path() != "sort" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && info.ObjectOf(id) == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	}
	return "expression"
}
