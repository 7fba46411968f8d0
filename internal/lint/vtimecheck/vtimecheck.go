// Package vtimecheck forbids reading or waiting on the wall clock outside
// the virtual-time substrate. Every latency and timeout in the simulation
// must flow through *vtime.Clock so that clock scaling works and two runs
// of the same experiment see the same virtual schedule; a stray time.Now
// or time.Sleep silently anchors an experiment to the machine it runs on.
//
// The context package's timed contexts (context.WithTimeout, WithDeadline
// and their Cause forms) arm wall-clock timers too, and are forbidden
// alike: vtime.Clock.WithTimeout is the virtual-time form.
//
// It also forbids, outside _test.go files, calling a connection's
// SetDeadline, SetReadDeadline or SetWriteDeadline: an exchange is bounded
// by its context (vtime.Clock.WithTimeout, then netem.Bind), and a conn
// deadline is a second bound in a second time frame.
//
// internal/vtime itself and the real-delivery plumbing in
// internal/netem/conn.go are allowlisted (see lint.DefaultConfig);
// individually justified uses carry //lint:allow-realtime <reason>.
package vtimecheck

import (
	"go/ast"
	"go/types"
	"strings"

	"csaw/internal/lint/analysis"
)

// forbidden are the time package's wall-clock entry points. Everything
// else in package time (Duration arithmetic, time.Time formatting,
// constants) is value manipulation and stays legal.
var forbidden = map[string]string{
	"Now":       "read the virtual clock: vtime.Clock.Now",
	"Sleep":     "sleep in virtual time: vtime.Clock.Sleep",
	"After":     "use vtime.Clock.After",
	"AfterFunc": "use vtime.Clock.AfterFunc",
	"NewTimer":  "use vtime.Clock.After/AfterFunc",
	"NewTicker": "use vtime.Clock.NewTicker",
	"Tick":      "use vtime.Clock.NewTicker",
	"Since":     "use vtime.Clock.Since",
	"Until":     "compute from vtime.Clock.Now",
}

// timedContexts are the context package's constructors that arm a
// wall-clock timer.
var timedContexts = map[string]bool{
	"WithTimeout":       true,
	"WithDeadline":      true,
	"WithTimeoutCause":  true,
	"WithDeadlineCause": true,
}

// deadlineSetters are the net.Conn methods that bound I/O without a context.
var deadlineSetters = map[string]bool{
	"SetDeadline":      true,
	"SetReadDeadline":  true,
	"SetWriteDeadline": true,
}

// Analyzer is the vtimecheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name:     "vtimecheck",
	Doc:      "forbid wall-clock time (time.Now, time.Sleep, timers, context.WithTimeout/WithDeadline) outside internal/vtime, and conn deadline setters outside tests; all timing must flow through vtime.Clock and the exchange's context",
	Suppress: "realtime",
	Run:      run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		test := strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && !test {
				if fn := pass.Callee(call); fn != nil && deadlineSetters[fn.Name()] && fn.Type().(*types.Signature).Recv() != nil {
					pass.Reportf(call.Pos(), "%s bounds I/O with a conn deadline; bound the exchange's context and netem.Bind the conn (or annotate //lint:allow-realtime <reason>)", fn.Name())
				}
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			_, path, ok := pass.PkgFuncRef(sel)
			if !ok {
				return true
			}
			if path == "context" && timedContexts[sel.Sel.Name] {
				pass.Reportf(sel.Pos(), "context.%s arms a wall-clock timer; use vtime.Clock.WithTimeout (or annotate //lint:allow-realtime <reason>)", sel.Sel.Name)
				return true
			}
			if path != "time" {
				return true
			}
			if hint, bad := forbidden[sel.Sel.Name]; bad {
				pass.Reportf(sel.Pos(), "time.%s is wall-clock time; %s (or annotate //lint:allow-realtime <reason>)", sel.Sel.Name, hint)
			}
			return true
		})
	}
	return nil
}
