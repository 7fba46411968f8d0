// Package ownedwrite guards the zero-copy hand-off on the page path: a
// slice passed to a WriteOwned call (netem.Conn.WriteOwned, the
// netem.WriteOwned helper, or anything else of that name) or to a Pass call
// (netem.Session.Pass, an interceptor letting the client's bytes through)
// is kept by the connection by reference and may travel on to further
// connections, so nobody may modify its bytes afterwards. The analyzer flags, in the
// function that made the hand-off, every later
//
//	b[i] = x, b[i] += x, b[i]++     // element stores
//	copy(b, …), copy(b[n:], …)      // copy into it
//	append(b, …), append(b[:0], …)  // append writes into spare capacity
//	r.Read(b), io.ReadFull(r, b)    // reuse as a read buffer
//
// on the same variable or field (re-sliced or not). "Later" follows
// control flow as far as loops: when the hand-off sits in a loop and the
// slice was declared outside it, a store earlier in the loop body runs
// after the hand-off on the next iteration and is flagged too. Rebinding
// the variable to something else (b = make(…), b = nil) ends the watch.
//
// The receiving end is watched the same way. A response read off a
// connection (httpx.ReadResponse, ReadResponseCtx, RoundTrip, Client.Do and
// Client.Get, or anything else of those names returning a pointer to a
// struct with a Body field) may hold its body by reference — the segment
// the sender handed over — so after x, … := ReadResponse(…) the analyzer
// flags element stores, copy and reads into x.Body as above. An append is
// fine there: the body's capacity is clipped, so it cannot reach the
// sender's array. Assigning x anything else ends the watch. Bytes taken
// off a connection are watched alike: after b, … := Take(…) (netem.Take,
// Conn.Take) or b, … := ReadFrame(…) (dnsx.ReadFrame, a DNS frame taken
// whole) — anything of those names returning a []byte first — stores,
// copy and reads into b are flagged, and so is an append to a Take result,
// whose capacity may run on into the segment's unread bytes; a frame's is
// clipped.
//
// The check stays inside one function and one name: an alias (c := b) or
// a callee that writes through its parameter is not followed, which is
// why functions that pass a parameter on to WriteOwned — as
// httpx.WriteResponse does with the body — say so in their comment. A
// deliberate store (the bytes are provably unread by then) carries
// //lint:allow-ownedwrite <reason>.
package ownedwrite

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"csaw/internal/lint/analysis"
)

// Analyzer is the ownedwrite analyzer.
var Analyzer = &analysis.Analyzer{
	Name:     "ownedwrite",
	Doc:      "flag stores, copy, append and reads into a slice after it was handed to WriteOwned in the same function, and stores, copy and reads into a response body read or bytes taken off a connection; all keep the bytes by reference",
	Suppress: "ownedwrite",
	Run:      run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkFunc(pass, fn.Body)
			}
		}
	}
	return nil
}

// root identifies a slice variable or field: its spelling plus, for a plain
// variable, where it was declared (two variables spelled alike differ
// there). The zero root is "not a variable".
type root struct {
	name string
	decl token.Pos
}

// event is something that happens to a root at pos: a write into its array
// (what != "") or a rebinding that ends the watch.
type event struct {
	pos  token.Pos
	root root
	what string
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	type handoff struct {
		call *ast.CallExpr
		root root
		// read names what call read into root — "" for a slice handed
		// over, to the call named name — and appendOK whether its
		// capacity is clipped.
		read, name string
		appendOK   bool
	}
	var (
		handoffs []handoff
		events   []event
		loops    []*ast.BlockStmt
	)
	store := func(target ast.Expr) {
		if ix, ok := ast.Unparen(target).(*ast.IndexExpr); ok {
			if r := rootOf(pass, ix.X); r != (root{}) {
				events = append(events, event{target.Pos(), r, "store into"})
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, n.Body)
		case *ast.RangeStmt:
			loops = append(loops, n.Body)
		case *ast.CallExpr:
			if fn := pass.Callee(n); fn != nil && handovers[fn.Name()] && len(n.Args) > 0 {
				if r := rootOf(pass, n.Args[len(n.Args)-1]); r != (root{}) {
					handoffs = append(handoffs, handoff{call: n, root: r, name: fn.Name()})
				}
			}
			events = append(events, callWrites(pass, n)...)
		case *ast.IncDecStmt:
			store(n.X)
		case *ast.AssignStmt:
			var taken root
			if x, ok := n.Lhs[0].(*ast.Ident); ok && x.Name != "_" {
				body := root{name: x.Name + ".Body"}
				call, _ := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
				single := call != nil && len(n.Rhs) == 1
				if single && readsBody(pass, call) {
					handoffs = append(handoffs, handoff{call: call, root: body, read: "response body", appendOK: true})
				} else {
					events = append(events, event{pos: n.End(), root: body})
				}
				if clipped, ok := takes(pass, call); single && ok {
					taken = rootOf(pass, x)
					handoffs = append(handoffs, handoff{call: call, root: taken, read: "taken", appendOK: clipped})
				}
			}
			for i, lhs := range n.Lhs {
				store(lhs)
				// Rebinding to anything but a view of itself ends the watch,
				// and taking bytes into it starts one.
				r := rootOf(pass, lhs)
				if r == (root{}) || r == taken {
					continue
				}
				if len(n.Lhs) != len(n.Rhs) || rootOf(pass, appendSource(pass, n.Rhs[i])) != r {
					events = append(events, event{pos: n.End(), root: r})
				}
			}
		}
		return true
	})
	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	reported := make(map[token.Pos]bool)
	// scan reports the writes to h's root in [from, to), in order, up to
	// the first rebinding.
	scan := func(h handoff, from, to token.Pos) {
		for _, e := range events {
			if e.root != h.root || e.pos < from || e.pos >= to {
				continue
			}
			if e.what == "" {
				return
			}
			if h.appendOK && e.what == "append to" || reported[e.pos] {
				continue
			}
			reported[e.pos] = true
			line := pass.Fset.Position(h.call.Pos()).Line
			switch h.read {
			case "response body":
				pass.Reportf(e.pos, "%s %s, read on line %d: a response body may be the sender's bytes, taken by reference, and is read-only (or annotate //lint:allow-ownedwrite <reason>)",
					e.what, h.root.name, line)
				continue
			case "taken":
				pass.Reportf(e.pos, "%s %s, taken on line %d: bytes taken off a connection are the sender's, held by reference, and are read-only (or annotate //lint:allow-ownedwrite <reason>)",
					e.what, h.root.name, line)
				continue
			}
			pass.Reportf(e.pos, "%s %s after it was handed to %s on line %d: the connection keeps those bytes by reference (or annotate //lint:allow-ownedwrite <reason>)",
				e.what, h.root.name, h.name, line)
		}
	}
	for _, h := range handoffs {
		scan(h, h.call.End(), body.End())
		for _, loop := range loops {
			// A loop around the hand-off whose iterations share the array:
			// what precedes the hand-off in its body also follows it.
			if loop.Pos() <= h.call.Pos() && h.call.End() <= loop.End() && h.root.decl < loop.Pos() {
				scan(h, loop.Pos(), h.call.Pos())
			}
		}
	}
}

// callWrites returns the writes a call makes into its slice arguments, for
// the callees known to write: copy, append, Read methods, io.ReadFull and
// io.ReadAtLeast.
func callWrites(pass *analysis.Pass, call *ast.CallExpr) []event {
	target, what := ast.Expr(nil), ""
	switch builtinName(pass, call) {
	case "copy":
		target, what = call.Args[0], "copy into"
	case "append":
		target, what = call.Args[0], "append to"
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Read":
			if len(call.Args) == 1 {
				target, what = call.Args[0], "read into"
			}
		case "ReadFull", "ReadAtLeast":
			if _, path, ok := pass.PkgFuncRef(sel); ok && path == "io" && len(call.Args) >= 2 {
				target, what = call.Args[1], "read into"
			}
		}
	}
	if r := rootOf(pass, target); r != (root{}) {
		return []event{{call.Pos(), r, what}}
	}
	return nil
}

// bodyReaders name the calls whose response may hold its body by reference.
var bodyReaders = map[string]bool{"ReadResponse": true, "ReadResponseCtx": true, "RoundTrip": true, "Do": true, "Get": true}

// readsBody reports whether call is one of bodyReaders returning, first, a
// pointer to a struct with a Body field.
func readsBody(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := pass.Callee(call)
	if fn == nil || !bodyReaders[fn.Name()] {
		return false
	}
	res := fn.Type().(*types.Signature).Results()
	if res.Len() == 0 {
		return false
	}
	ptr, ok := res.At(0).Type().(*types.Pointer)
	if !ok {
		return false
	}
	st, ok := ptr.Elem().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == "Body" {
			return true
		}
	}
	return false
}

// handovers name the calls that keep their last argument by reference.
var handovers = map[string]bool{"WriteOwned": true, "Pass": true}

// takers name the calls that return bytes taken off a connection, and
// whether those come with their capacity clipped.
var takers = map[string]bool{"Take": false, "ReadFrame": true}

// takes reports whether call is one of takers returning, first, a []byte,
// and whether its result is clipped.
func takes(pass *analysis.Pass, call *ast.CallExpr) (clipped, ok bool) {
	if call == nil {
		return false, false
	}
	fn := pass.Callee(call)
	if fn == nil {
		return false, false
	}
	clipped, ok = takers[fn.Name()]
	if !ok {
		return false, false
	}
	res := fn.Type().(*types.Signature).Results()
	if res.Len() == 0 {
		return false, false
	}
	sl, isSlice := res.At(0).Type().(*types.Slice)
	if !isSlice {
		return false, false
	}
	b, isBasic := sl.Elem().(*types.Basic)
	return clipped, isBasic && b.Kind() == types.Byte
}

// builtinName names the builtin function call invokes with at least one
// argument, or "" for any other call.
func builtinName(pass *analysis.Pass, call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && len(call.Args) > 0 {
		if _, builtin := pass.TypesInfo.Uses[id].(*types.Builtin); builtin {
			return id.Name
		}
	}
	return ""
}

// appendSource unwraps append(x, …) to x, so that b = append(b, …) counts
// as a view of b rather than a rebinding.
func appendSource(pass *analysis.Pass, e ast.Expr) ast.Expr {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok && builtinName(pass, call) == "append" {
		return call.Args[0]
	}
	return e
}

// rootOf finds the slice variable or field behind e, looking through
// parentheses and slice expressions: b, b[:n] and (b)[2:] are all b,
// c.buf[:n] is c.buf. Anything else (calls, literals, conversions, nil) is
// the zero root.
func rootOf(pass *analysis.Pass, e ast.Expr) root {
	for e != nil {
		switch x := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = x.X
			continue
		case *ast.Ident:
			if v, ok := pass.TypesInfo.ObjectOf(x).(*types.Var); ok {
				return root{x.Name, v.Pos()}
			}
		case *ast.SelectorExpr:
			if _, ok := pass.TypesInfo.Uses[x.Sel].(*types.Var); ok {
				return root{name: types.ExprString(x)}
			}
		}
		break
	}
	return root{}
}
