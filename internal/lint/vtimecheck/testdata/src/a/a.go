// Package a exercises vtimecheck: wall-clock reads and timers are
// flagged, as are the context package's timed contexts and conn deadline
// setters; Duration/Time value manipulation
// is not, and both suppression placements (same line, preceding line,
// declaration doc) work.
package a

import (
	"context"
	"errors"
	"net"
	"time"
)

func timedContexts(ctx context.Context) {
	_, c1 := context.WithTimeout(ctx, time.Second)                                // want `context\.WithTimeout arms a wall-clock timer; use vtime\.Clock\.WithTimeout`
	_, c2 := context.WithDeadline(ctx, time.Time{})                               // want `context\.WithDeadline arms a wall-clock timer`
	_, c3 := context.WithTimeoutCause(ctx, time.Second, errors.New("slow"))       // want `context\.WithTimeoutCause arms a wall-clock timer`
	_, c4 := context.WithDeadlineCause(ctx, time.Time{}, errors.New("too late")) // want `context\.WithDeadlineCause arms a wall-clock timer`
	//lint:allow-realtime a real socket's handshake, bounded in real time
	_, c5 := context.WithTimeout(ctx, time.Second)
	for _, c := range []context.CancelFunc{c1, c2, c3, c4, c5} {
		c()
	}
}

func deadlines(c net.Conn, tc *net.TCPConn) {
	_ = c.SetDeadline(time.Time{})       // want `SetDeadline bounds I/O with a conn deadline`
	_ = c.SetReadDeadline(time.Time{})   // want `SetReadDeadline bounds I/O with a conn deadline`
	_ = tc.SetWriteDeadline(time.Time{}) // want `SetWriteDeadline bounds I/O with a conn deadline`
	//lint:allow-realtime a real socket has no context to bind
	_ = tc.SetDeadline(time.Time{})
}

func bad() {
	_ = time.Now()                         // want `time\.Now is wall-clock time`
	time.Sleep(time.Second)                // want `time\.Sleep is wall-clock time`
	<-time.After(time.Second)              // want `time\.After is wall-clock time`
	time.AfterFunc(time.Second, func() {}) // want `time\.AfterFunc is wall-clock time`
	t := time.NewTimer(time.Second)        // want `time\.NewTimer is wall-clock time`
	_ = t
	tk := time.NewTicker(time.Second) // want `time\.NewTicker is wall-clock time`
	_ = tk
	_ = time.Since(time.Time{}) // want `time\.Since is wall-clock time`
	_ = time.Until(time.Time{}) // want `time\.Until is wall-clock time`
}

func good() {
	d := 3 * time.Second
	_ = d.Seconds()
	var t time.Time
	_ = t.Add(time.Minute)
	_ = time.Date(2017, time.November, 25, 0, 0, 0, 0, time.UTC)
	_ = time.Duration(5)
}

func suppressedSameLine() {
	start := time.Now() //lint:allow-realtime wall-clock runtime report
	_ = start
}

func suppressedPrecedingLine() {
	//lint:allow-realtime the deadline is real by contract
	time.Sleep(time.Millisecond)
}

//lint:allow-realtime the whole helper deliberately measures wall time
func suppressedDecl() {
	start := time.Now()
	time.Sleep(time.Millisecond)
	_ = time.Since(start)
}

// want+1 `needs a reason`
//lint:allow-realtime
func reasonlessDirective() {
	_ = time.Now() // want `time\.Now is wall-clock time`
}

// want+1 `unknown suppression keyword`
//lint:allow-wallclock oops wrong keyword
func unknownKeyword() {
	_ = time.Now() // want `time\.Now is wall-clock time`
}
