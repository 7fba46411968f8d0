// Package clean is what vtimecheck must leave alone around deadlines:
// declaring the net.Conn setters (a conn type has to), calling a plain
// function that shares their name, and calling them from a _test.go file.
package clean

import (
	"errors"
	"time"
)

type conn struct{}

func (conn) SetDeadline(time.Time) error      { return errors.New("no deadlines") }
func (conn) SetReadDeadline(time.Time) error  { return errors.New("no deadlines") }
func (conn) SetWriteDeadline(time.Time) error { return errors.New("no deadlines") }

// SetDeadline is a function, not a conn method.
func SetDeadline(d time.Duration) time.Duration { return d }

func plain() time.Duration { return SetDeadline(time.Second) }
