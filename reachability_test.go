package bdi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// shippedBinaries are the roots of the reachability gate: the server, the
// CLI and the paper's tables and figures.
var shippedBinaries = []string{"mdm-server", "bdictl", "benchrunner"}

// unreachedList is the committed list of every non-test function that no
// shipped binary links, each with the reason it is kept.
const unreachedList = "testdata/unreached.txt"

// TestShippedReachability builds the shipped binaries with inlining off and
// the linker's dependency dump on, so the dump names exactly the functions
// the linker keeps, and fails when the functions declared in the module but
// absent from every dump differ from testdata/unreached.txt. A new dead
// function must be deleted (or listed with a reason); a listed function that
// is now reached or gone must leave the list.
func TestShippedReachability(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("go command not found: %v", err)
	}

	pkgs := listPackages(t, gobin)
	var declared []declaredFunc
	for _, p := range pkgs {
		if skipReachability(p.ImportPath) {
			continue
		}
		fset := token.NewFileSet()
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		declared = append(declared, declaredFuncs(p.ImportPath, p.Name == "main", fset, files)...)
	}

	dumps := map[string]string{}
	dir := t.TempDir()
	for _, bin := range shippedBinaries {
		cmd := exec.Command(gobin, "build", "-gcflags=all=-l", "-ldflags=-dumpdep",
			"-o", filepath.Join(dir, bin), "./cmd/"+bin)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("building %s: %v\n%s", bin, err, tail(stderr.String()))
		}
		dumps["bdi/cmd/"+bin] = stderr.String()
	}

	got := unreachedFuncs(declared, dumps)
	listed, reasons, total := readUnreachedList(t, unreachedList)

	var add, remove []string
	unreached := map[string]bool{}
	lines := 0
	for _, d := range got {
		if _, ok := listed[d.Symbol]; !ok {
			add = append(add, fmt.Sprintf("%s <reason>    # %s:%d, %d lines", d.Symbol, d.File, d.Line, d.Lines))
		}
		unreached[d.Symbol] = true
		lines += d.Lines
	}
	for sym, reason := range listed {
		if !unreached[sym] {
			remove = append(remove, sym+" "+reason)
		}
		if !reasons[reason] {
			t.Errorf("%s: %q is not a reason the header of %s defines", sym, reason, unreachedList)
		}
	}
	sort.Strings(remove)
	if len(add) > 0 {
		t.Errorf("%d functions are linked by no shipped binary and are not in %s; delete them, or add (with a reason from its header):\n%s",
			len(add), unreachedList, strings.Join(add, "\n"))
	}
	if len(remove) > 0 {
		t.Errorf("%d entries of %s are now reached by a shipped binary or no longer exist; remove:\n%s",
			len(remove), unreachedList, strings.Join(remove, "\n"))
	}
	if want := fmt.Sprintf("%d entries, %d lines", len(got), lines); total != want {
		t.Errorf("%s: the summary line says %q; make it:\n%s%s", unreachedList, total, totalPrefix, want)
	}
	t.Logf("%d declared functions, %d linked by no shipped binary (%d lines)", len(declared), len(got), lines)
}

// skipReachability names the packages the gate does not hold to the shipped
// binaries: the examples are binaries of their own, and internal/oracle is
// test-only by rule.
func skipReachability(importPath string) bool {
	return strings.HasPrefix(importPath, "bdi/examples/") || importPath == "bdi/internal/oracle"
}

type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
}

// listPackages returns the module's packages (bench/ is a module of its
// own, so ./... leaves it out) with the files the current build
// configuration compiles, so build-constrained files match the build.
func listPackages(t *testing.T, gobin string) []listedPackage {
	t.Helper()
	out, err := exec.Command(gobin, "list", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// declaredFunc is one function or method declaration, named as the linker
// names it (with the import path in place of "main" for commands).
type declaredFunc struct {
	Symbol string // e.g. bdi/internal/rdf.(*Graph).Add
	Linker string // e.g. main.run for a command, else Symbol
	Pkg    string // import path, which selects the dump of a command
	Main   bool
	File   string
	Line   int
	Lines  int // from "func" to the closing brace
}

// declaredFuncs lists the function declarations of one package. init and
// main are skipped: the linker keeps them by rule.
func declaredFuncs(importPath string, isMain bool, fset *token.FileSet, files []*ast.File) []declaredFunc {
	var out []declaredFunc
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || (fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main")) {
				continue
			}
			name := funcName(fd)
			linker := importPath + "." + name
			if isMain {
				linker = "main." + name
			}
			start, end := fset.Position(fd.Pos()), fset.Position(fd.End())
			out = append(out, declaredFunc{
				Symbol: importPath + "." + name,
				Linker: linker,
				Pkg:    importPath,
				Main:   isMain,
				File:   filepath.Base(start.Filename),
				Line:   start.Line,
				Lines:  end.Line - start.Line + 1,
			})
		}
	}
	return out
}

// funcName renders a declaration's linker name without its package:
// F, T.M or (*T).M. A generic receiver T[K] is named T, as the linker's
// symbols are once their instantiation is stripped.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if p, ok := typ.(*ast.ParenExpr); ok {
		typ = p.X
	}
	star, ptr := typ.(*ast.StarExpr)
	if ptr {
		typ = star.X
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	recv := typ.(*ast.Ident).Name
	if ptr {
		return "(*" + recv + ")." + fd.Name.Name
	}
	return recv + "." + fd.Name.Name
}

// reachedSymbols reads a linker -dumpdep dump ("from -> to" per line) and
// returns every symbol on either side, normalised: instantiations such as
// [go.shape.int] are stripped and a method value's -fm wrapper stands for
// its method. Aux symbols (F.arginfo1, F.stkobj) keep their suffix, so they
// never match a declaration.
func reachedSymbols(dump string) map[string]bool {
	reached := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(dump))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		from, to, ok := strings.Cut(sc.Text(), " -> ")
		if !ok {
			continue
		}
		reached[normalizeSymbol(from)] = true
		reached[normalizeSymbol(to)] = true
	}
	return reached
}

// normalizeSymbol strips every bracketed instantiation and a trailing -fm.
func normalizeSymbol(sym string) string {
	if strings.IndexByte(sym, '[') >= 0 {
		var b strings.Builder
		depth := 0
		for _, r := range sym {
			switch {
			case r == '[':
				depth++
			case r == ']' && depth > 0:
				depth--
			case depth == 0:
				b.WriteRune(r)
			}
		}
		sym = b.String()
	}
	return strings.TrimSuffix(sym, "-fm")
}

// unreachedFuncs returns the declarations no dump reaches, sorted by symbol.
// A library function is reached when any binary links it; a command's
// function (linker package "main") only when its own binary does.
func unreachedFuncs(declared []declaredFunc, dumps map[string]string) []declaredFunc {
	shared := map[string]bool{}
	own := map[string]map[string]bool{}
	for pkg, dump := range dumps {
		own[pkg] = reachedSymbols(dump)
		for sym := range own[pkg] {
			if !strings.HasPrefix(sym, "main.") {
				shared[sym] = true
			}
		}
	}
	var out []declaredFunc
	for _, d := range declared {
		reached := shared[d.Linker]
		if d.Main {
			reached = own[d.Pkg][d.Linker]
		}
		if !reached {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Symbol < out[j].Symbol })
	return out
}

// totalPrefix starts the list's summary line, which the code-size report
// reads: the entry count and the lines from "func" to the closing brace.
const totalPrefix = "# total: "

// readUnreachedList parses the committed list: "# reason <name>: ..." header
// lines define the vocabulary, the "# total: " line summarizes it, and every
// other non-blank line is "<symbol> <reason>".
func readUnreachedList(t *testing.T, path string) (listed map[string]string, reasons map[string]bool, total string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	listed = map[string]string{}
	reasons = map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, totalPrefix); ok {
			total = rest
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# reason "); ok {
			name, _, _ := strings.Cut(rest, ":")
			reasons[strings.TrimSpace(name)] = true
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("%s:%d: want \"<symbol> <reason>\", got %q", path, i+1, line)
			continue
		}
		if _, dup := listed[fields[0]]; dup {
			t.Errorf("%s:%d: %s is listed twice", path, i+1, fields[0])
		}
		listed[fields[0]] = fields[1]
	}
	return listed, reasons, total
}

// tail keeps the last lines of a failed build's output, past the dump.
func tail(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return strings.Join(lines, "\n")
}

// TestReachabilitySymbolMapper holds the gate's name mapping to the
// linker's: declarations parsed from an in-memory package are matched
// against hand-written -dumpdep edges, one case per symbol shape.
func TestReachabilitySymbolMapper(t *testing.T) {
	const src = `package p

type T struct{}

func (T) Value()  {}
func (*T) Ptr()   {}
func (T) Bound()  {}
func Aux()        {}
func Dead()       { _ = func() {} }
func Caller()     {}
func init()       {}

type G[K any] struct{}

func (*G[K]) Get()    {}
func (G[K]) Len() int { return 0 }

type H[K, V any] struct{}

func (H[K, V]) Both() {}

func Map[K comparable, V any](m map[K]V) {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]declaredFunc{}
	for _, d := range declaredFuncs("m/p", false, fset, []*ast.File{f}) {
		declared[d.Symbol] = d
	}
	if _, ok := declared["m/p.init"]; ok {
		t.Error("init is listed; the linker keeps it by rule")
	}

	for _, c := range []struct {
		name    string
		edge    string // one -dumpdep line
		symbol  string // the declaration it should or should not reach
		reached bool
	}{
		{"value receiver", "main.main -> m/p.T.Value", "m/p.T.Value", true},
		{"pointer receiver", "m/p.T.Value -> m/p.(*T).Ptr", "m/p.(*T).Ptr", true},
		{"pointer wrapper is not the value method", "main.main -> m/p.(*T).Value", "m/p.T.Value", false},
		{"generic pointer receiver", "main.main -> m/p.(*G[go.shape.int]).Get", "m/p.(*G).Get", true},
		{"generic value receiver", "main.main -> m/p.G[go.shape.struct { F []int }].Len", "m/p.G.Len", true},
		{"two type parameters", "main.main -> m/p.H[go.shape.string,go.shape.[2]uint8].Both", "m/p.H.Both", true},
		{"generic function", "main.main -> m/p.Map[go.shape.[3]m/p.T,go.shape.[]string]", "m/p.Map", true},
		{"method value", "main.main -> m/p.T.Bound-fm", "m/p.T.Bound", true},
		{"aux symbol", "runtime.throw -> m/p.Aux.arginfo1", "m/p.Aux", false},
		{"closure", "main.main -> m/p.Dead.func1", "m/p.Dead", false},
		{"caller side", "m/p.Caller -> runtime.throw", "m/p.Caller", true},
	} {
		d, ok := declared[c.symbol]
		if !ok {
			t.Errorf("%s: no declaration named %s", c.name, c.symbol)
			continue
		}
		got := len(unreachedFuncs([]declaredFunc{d}, map[string]string{"m/cmd/a": "# m/cmd/a\n" + c.edge + "\n"})) == 0
		if got != c.reached {
			t.Errorf("%s: %q reaches %s = %v, want %v", c.name, c.edge, c.symbol, got, c.reached)
		}
	}

	// A command's functions are all linker package "main": only its own
	// binary's dump reaches them.
	mf, err := parser.ParseFile(fset, "main.go", "package main\n\nfunc helper() {}\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	helper := declaredFuncs("m/cmd/a", true, fset, []*ast.File{mf})
	if len(helper) != 1 || helper[0].Linker != "main.helper" || helper[0].Symbol != "m/cmd/a.helper" {
		t.Fatalf("command declaration = %+v", helper)
	}
	other := map[string]string{"m/cmd/a": "", "m/cmd/b": "main.main -> main.helper\n"}
	if len(unreachedFuncs(helper, other)) != 1 {
		t.Error("another binary's main.helper reached m/cmd/a.helper")
	}
	own := map[string]string{"m/cmd/a": "main.main -> main.helper\n", "m/cmd/b": ""}
	if len(unreachedFuncs(helper, own)) != 0 {
		t.Error("m/cmd/a's own dump did not reach m/cmd/a.helper")
	}
}
