package lint_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The reachability gate: product code is what a binary runs. TestReach
// builds every main package of the module (cmd/*, examples/* and the
// benchmark) with inlining off for the module's own packages, reads the
// functions each binary contains from `go tool nm`, and fails on every
// function declared in a non-test file that none of them contains, apart
// from the allow-list below. A function only tests call belongs in its
// package's _test.go files; one nothing calls is deleted.

// reason is why an unreached function stays in product code. The set is
// closed: an entry needs one of these.
type reason string

const (
	// An interface's method set needs it, though no binary calls it
	// through the interface (net.Conn's deadlines, net.Addr's Network).
	interfaceMethod reason = "interface method"
	// The root package exports it, and the design documents it.
	rootAPI reason = "root-package API"
	// A package that exists for tests: no binary imports it.
	testSupport reason = "test-support package"
	// The implementation a fuzz or property test holds a faster one to.
	reference reason = "reference implementation a test compares against"
	// A setter tests use to schedule a fault the product path handles.
	faultSeam reason = "fault seam"
)

// reachAllow maps a function ("import/path.Name", "import/path.(*T).M")
// or a whole package ("import/path") to its reason.
var reachAllow = map[string]reason{
	"csaw.Experiments":    rootAPI,
	"csaw.FindExperiment": rootAPI,
	// §4.3.1 footnote 7's POST path, exported as csaw.Client (DESIGN.md
	// "POST handling").
	"csaw/internal/core.(*Client).Do":         rootAPI,
	"csaw/internal/core.(*Client).sendDirect": rootAPI,
	"csaw/internal/core.(*Client).sendVia":    rootAPI,

	"csaw/internal/globaldb.(*FaultPolicy).SetDrop":       faultSeam,
	"csaw/internal/globaldb.(*FaultPolicy).FailNext":      faultSeam,
	"csaw/internal/globaldb.(*FaultPolicy).SetPathFilter": faultSeam,

	"csaw/internal/netem.Addr.Network":             interfaceMethod, // net.Addr
	"csaw/internal/netem.(*Conn).RemoteAddr":       interfaceMethod, // net.Conn
	"csaw/internal/netem.(*Conn).SetDeadline":      interfaceMethod, // net.Conn
	"csaw/internal/netem.(*Conn).SetReadDeadline":  interfaceMethod, // net.Conn
	"csaw/internal/netem.(*Conn).SetWriteDeadline": interfaceMethod, // net.Conn
	"csaw/internal/netem.(*OpError).Temporary":     interfaceMethod, // net.Error

	// FuzzParseHello holds tlsx.ParseHello to it, and censor's
	// FuzzInterceptedHello decides its model's verdict with it.
	"csaw/internal/tlsx.ReadHello": reference,

	"csaw/internal/leakcheck":     testSupport,
	"csaw/internal/lint/linttest": testSupport,
}

// fn is one function declared in a non-test file.
type fn struct {
	pkg   string // import path
	main  bool   // pkg is a main package: only its own binary can hold fn
	name  string // as nm names it after the package: F, T.M or (*T).M
	pos   string // file:line
	lines int    // lines from the func keyword to the closing brace
}

func (f fn) key() string { return f.pkg + "." + f.name }

// declared returns the functions with a body in one file's source.
func declared(pkg string, main bool, file string, src []byte) ([]fn, error) {
	fset := token.NewFileSet()
	af, err := parser.ParseFile(fset, file, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var out []fn
	for _, d := range af.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil || fd.Name.Name == "init" || fd.Name.Name == "_" {
			continue
		}
		name := fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) == 1 {
			name = recvName(fd.Recv.List[0].Type) + "." + name
		}
		start, end := fset.Position(fd.Pos()), fset.Position(fd.End())
		out = append(out, fn{
			pkg:   pkg,
			main:  main,
			name:  name,
			pos:   fmt.Sprintf("%s:%d", file, start.Line),
			lines: end.Line - start.Line + 1,
		})
	}
	return out, nil
}

// recvName renders a receiver type as nm does once type arguments are
// stripped: T, or (*T) for a pointer receiver.
func recvName(x ast.Expr) string {
	ptr := false
	if s, ok := x.(*ast.StarExpr); ok {
		ptr, x = true, s.X
	}
	switch t := x.(type) {
	case *ast.IndexExpr:
		x = t.X
	case *ast.IndexListExpr:
		x = t.X
	}
	id, _ := x.(*ast.Ident)
	name := "?"
	if id != nil {
		name = id.Name
	}
	if ptr {
		return "(*" + name + ")"
	}
	return name
}

// symbols returns the text symbols of `go tool nm` output, with type
// arguments stripped so that every instantiation of a generic function
// names the function. A shape type prints with spaces
// ("go.shape.struct { … }"), so the name is the rest of the line after
// the symbol type, not its last field.
func symbols(nm []byte) map[string]bool {
	syms := make(map[string]bool)
	sc := bufio.NewScanner(bytes.NewReader(nm))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		rest := strings.TrimSpace(sc.Text())
		addr, rest, _ := strings.Cut(rest, " ")
		typ, name, _ := strings.Cut(strings.TrimLeft(rest, " "), " ")
		if addr == "" || (typ != "T" && typ != "t") {
			continue
		}
		syms[stripTypeArgs(name)] = true
	}
	return syms
}

// stripTypeArgs removes every bracketed group, nested ones included.
func stripTypeArgs(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// unreached returns the functions in fns that no binary in bins (main
// package import path → its symbols) contains and that allow does not
// name, by function or by package.
func unreached(fns []fn, bins map[string]map[string]bool, allow map[string]reason) []fn {
	var out []fn
	for _, f := range fns {
		_, fnAllowed := allow[f.key()]
		_, pkgAllowed := allow[f.pkg]
		if !fnAllowed && !pkgAllowed && !reached(f, bins) {
			out = append(out, f)
		}
	}
	return out
}

func reached(f fn, bins map[string]map[string]bool) bool {
	if f.main {
		return bins[f.pkg]["main."+f.name]
	}
	for _, syms := range bins {
		if syms[f.key()] {
			return true
		}
	}
	return false
}

// TestReachList runs the list computation on planted declarations and nm
// lines: an unreached function is listed, and an allow-listed one, a
// generic function whose instantiations nm names with spaced shape types,
// a method on a generic type and a main package's own function are not.
func TestReachList(t *testing.T) {
	const src = `package p

func Used() {}

func Planted() int { return 1 }

func Allowed() {}

func take[T any](v T) T { return v }

type box[T any] struct{ v T }

func (b *box[T]) get() T { return b.v }
`
	fns, err := declared("csaw/internal/p", false, "internal/p/p.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	mainFns, err := declared("csaw/cmd/x", true, "cmd/x/main.go", []byte("package main\n\nfunc main() {}\n\nfunc run() {}\n"))
	if err != nil {
		t.Fatal(err)
	}
	nm := []byte(`  401000 T csaw/internal/p.Used
  401100 T csaw/internal/p.take[go.shape.struct { a []uint8; b map[string]int }]
  401200 t csaw/internal/p.(*box[go.shape.int]).get
  401300 T main.main
  401400 T main.run
  5a0000 D csaw/internal/p.Planted
         U csaw/internal/p.Allowed
`)
	bins := map[string]map[string]bool{"csaw/cmd/x": symbols(nm)}
	allow := map[string]reason{"csaw/internal/p.Allowed": interfaceMethod}
	got := unreached(append(fns, mainFns...), bins, allow)
	if len(got) != 1 || got[0].key() != "csaw/internal/p.Planted" || got[0].pos != "internal/p/p.go:5" || got[0].lines != 1 {
		t.Fatalf("unreached = %+v, want only csaw/internal/p.Planted at internal/p/p.go:5", got)
	}
	// A main package's functions are matched in its own binary only.
	if got := unreached(mainFns, map[string]map[string]bool{"csaw/cmd/y": symbols(nm)}, nil); len(got) != 2 {
		t.Fatalf("main functions matched in another binary: unreached %+v", got)
	}
}

func TestReach(t *testing.T) {
	if os.Getenv("CSAW_REACH") == "" {
		t.Skip("set CSAW_REACH=1 (make reach) to build every binary and list the functions none of them contains")
	}
	root := strings.TrimSpace(string(goCmd(t, "", "list", "-m", "-f", "{{.Dir}}")))
	var fns []fn
	var mains []string
	list := goCmd(t, root, "list", "-f", "{{.ImportPath}}\t{{.Dir}}\t{{.Name}}\t{{join .GoFiles \" \"}}", "./...")
	for _, line := range strings.Split(strings.TrimSpace(string(list)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 4 {
			t.Fatalf("go list line %q", line)
		}
		path, main := f[0], f[2] == "main"
		if main {
			mains = append(mains, path)
		}
		for _, name := range strings.Fields(f[3]) {
			file := filepath.Join(f[1], name)
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			rel, _ := filepath.Rel(root, file)
			ds, err := declared(path, main, rel, src)
			if err != nil {
				t.Fatal(err)
			}
			fns = append(fns, ds...)
		}
	}

	bin := t.TempDir()
	goCmd(t, root, append([]string{"build", "-gcflags=csaw/...=-l", "-o", bin + string(filepath.Separator)}, mains...)...)
	bins := make(map[string]map[string]bool)
	for _, m := range mains {
		bins[m] = symbols(goCmd(t, root, "tool", "nm", filepath.Join(bin, filepath.Base(m))))
	}

	// An allow-list entry that names nothing declared, or a function a
	// binary reaches, is stale.
	live := make(map[string]bool)
	for _, f := range fns {
		if !reached(f, bins) {
			live[f.pkg], live[f.key()] = true, true
		}
	}
	for k := range reachAllow {
		if !live[k] {
			t.Errorf("allow-list entry %s names no unreached function or package", k)
		}
	}

	bad := unreached(fns, bins, reachAllow)
	total := 0
	for _, f := range bad {
		t.Errorf("%s: %s is in no binary (%d lines)", f.pos, f.key(), f.lines)
		total += f.lines
	}
	if len(bad) > 0 {
		t.Errorf("%d functions, %d lines, that no binary reaches: delete each, or move it to its package's _test.go files when only those tests call it", len(bad), total)
	}
}

func goCmd(t *testing.T, dir string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out
}
