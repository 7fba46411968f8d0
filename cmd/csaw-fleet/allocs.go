package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
)

// ledger is an allocation count by package: what a run allocated, each
// allocation attributed to the package of the first frame of its stack
// outside the runtime and the standard library.
type ledger map[string]*ledgerRow

type ledgerRow struct{ objects, bytes int64 }

// otherPkg holds what no frame of the repository's own allocated: the
// runtime's own work, as far as its recorded stacks reach.
const otherPkg = "(runtime)"

// readLedger collects a GC first — without one the profile is the previous
// cycle's — then reads runtime.MemProfile, which counts every allocation
// once runtime.MemProfileRate is 1.
func readLedger() ledger {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+50)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	l := make(ledger)
	for i := range recs {
		r := &recs[i]
		pkg := ownPackage(r.Stack())
		row := l[pkg]
		if row == nil {
			row = new(ledgerRow)
			l[pkg] = row
		}
		row.objects += r.AllocObjects
		row.bytes += r.AllocBytes
	}
	return l
}

// ownPackage returns the import path of the first function on stack that
// belongs to the repository (module csaw, or the command's own main).
func ownPackage(stack []uintptr) string {
	frames := runtime.CallersFrames(stack)
	for {
		f, more := frames.Next()
		if pkg := funcPackage(f.Function); pkg == "main" || strings.HasPrefix(pkg, "csaw/") {
			return pkg
		}
		if !more {
			return otherPkg
		}
	}
}

// funcPackage is the import path in a symbol name such as
// "csaw/internal/netem.(*Conn).Read".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// writeLedger writes after minus before, per fetch, by package, largest
// first, and the total beside what runtime.MemStats counted over the
// same span.
func writeLedger(w io.Writer, before, after ledger, fetches int, mallocs, totalBytes uint64) error {
	type row struct {
		pkg             string
		objects, nbytes float64
	}
	var rows []row
	var sumObjects, sumBytes float64
	for pkg, a := range after {
		objects, nbytes := a.objects, a.bytes
		if b := before[pkg]; b != nil {
			objects -= b.objects
			nbytes -= b.bytes
		}
		if objects == 0 {
			continue
		}
		r := row{pkg, float64(objects) / float64(fetches), float64(nbytes) / float64(fetches)}
		rows = append(rows, r)
		sumObjects += r.objects
		sumBytes += r.nbytes
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].objects != rows[j].objects {
			return rows[i].objects > rows[j].objects
		}
		return rows[i].pkg < rows[j].pkg
	})
	var b strings.Builder
	fmt.Fprintf(&b, "# allocations per fetch over %d fetches, by the package of the first frame outside the runtime and the standard library\n", fetches)
	fmt.Fprintf(&b, "%-32s %12s %12s\n", "package", "allocs", "bytes")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-32s %12.2f %12.1f\n", r.pkg, r.objects, r.nbytes)
	}
	fmt.Fprintf(&b, "%-32s %12.2f %12.1f\n", "total", sumObjects, sumBytes)
	fmt.Fprintf(&b, "%-32s %12.2f %12.1f\n", "runtime.MemStats", float64(mallocs)/float64(fetches), float64(totalBytes)/float64(fetches))
	_, err := io.WriteString(w, b.String())
	return err
}
