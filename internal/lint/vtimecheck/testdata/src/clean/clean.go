// Package clean is what vtimecheck must leave alone around deadlines:
// declaring the net.Conn setters (a conn type has to), calling a plain
// function that shares their name, and calling them from a _test.go file;
// and around contexts: the context package's untimed constructors, and a
// method named WithTimeout that is not the context package's.
package clean

import (
	"context"
	"errors"
	"time"
)

type clock struct{}

func (clock) WithTimeout(ctx context.Context, _ time.Duration) (context.Context, context.CancelFunc) {
	return context.WithCancel(ctx)
}

func contexts(ctx context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	_, cancelCause := context.WithCancelCause(context.WithoutCancel(ctx))
	defer cancelCause(nil)
	_, cancelTimed := clock{}.WithTimeout(ctx, time.Second)
	defer cancelTimed()
}

type conn struct{}

func (conn) SetDeadline(time.Time) error      { return errors.New("no deadlines") }
func (conn) SetReadDeadline(time.Time) error  { return errors.New("no deadlines") }
func (conn) SetWriteDeadline(time.Time) error { return errors.New("no deadlines") }

// SetDeadline is a function, not a conn method.
func SetDeadline(d time.Duration) time.Duration { return d }

func plain() time.Duration { return SetDeadline(time.Second) }
