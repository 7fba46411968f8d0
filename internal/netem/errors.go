package netem

import (
	"errors"
	"fmt"
)

// Sentinel errors reported by emulated connections. They mirror the failure
// modes a censor can induce (§2.1): resets, silent drops (surfacing as
// timeouts), and refusals.
var (
	// ErrReset is returned when the connection was torn down by an RST —
	// either injected by a censor or sent by the peer.
	ErrReset = errors.New("connection reset")
	// ErrRefused is returned by Dial when nothing listens on the target port.
	ErrRefused = errors.New("connection refused")
	// ErrNoRoute is returned when the destination IP is not routable.
	ErrNoRoute = errors.New("no route to host")
	// ErrTimeout is returned when an operation exceeded its deadline, e.g.
	// a SYN blackholed by the censor.
	ErrTimeout = errors.New("i/o timeout")
	// ErrClosed is returned on use of a closed connection or listener.
	ErrClosed = errors.New("use of closed connection")
	// ErrCannotTake is what Take returns for a reader that cannot hand its
	// bytes over by reference; nothing was read from it.
	ErrCannotTake = errors.New("netem: reader cannot take by reference")
)

// OpError wraps a sentinel with the operation and address for diagnostics,
// in the spirit of net.OpError.
type OpError struct {
	Op   string
	Addr string
	Err  error
}

func (e *OpError) Error() string { return fmt.Sprintf("netem: %s %s: %v", e.Op, e.Addr, e.Err) }

// Unwrap supports errors.Is against the sentinels above.
func (e *OpError) Unwrap() error { return e.Err }

// Timeout reports whether the error is a timeout, implementing net.Error.
func (e *OpError) Timeout() bool { return errors.Is(e.Err, ErrTimeout) }

// Temporary implements net.Error; emulated failures are not retried.
func (e *OpError) Temporary() bool { return false }

// IsReset reports whether err stems from a connection reset.
func IsReset(err error) bool { return errors.Is(err, ErrReset) }

// IsTimeout reports whether err stems from a deadline/timeout expiry: it
// is ErrTimeout or wraps it, or the first error in its tree with a Timeout
// method — the one errors.As would find — reports a timeout. The walk
// asserts types in place: an errors.As target would escape and cost an
// allocation on every error that is not ErrTimeout.
func IsTimeout(err error) bool {
	if errors.Is(err, ErrTimeout) {
		return true
	}
	timeout, _ := firstTimeout(err)
	return timeout
}

// firstTimeout returns the Timeout of the first error in err's tree, in
// errors.As's pre-order, that has one, and whether there was one.
func firstTimeout(err error) (timeout, found bool) {
	for err != nil {
		if t, ok := err.(interface{ Timeout() bool }); ok {
			return t.Timeout(), true
		}
		switch u := err.(type) {
		case interface{ Unwrap() error }:
			err = u.Unwrap()
		case interface{ Unwrap() []error }:
			for _, e := range u.Unwrap() {
				if timeout, found := firstTimeout(e); found {
					return timeout, true
				}
			}
			return false, false
		default:
			return false, false
		}
	}
	return false, false
}

// IsRefused reports whether err stems from a refused connection.
func IsRefused(err error) bool { return errors.Is(err, ErrRefused) }
