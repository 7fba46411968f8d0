package netem

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// timeoutErr is an error outside this package with a Timeout method.
type timeoutErr bool

func (timeoutErr) Error() string   { return "timeout-err" }
func (t timeoutErr) Timeout() bool { return bool(t) }

// asTimeout is IsTimeout as it was written with errors.As: the reference
// the in-place walk must agree with.
func asTimeout(err error) bool {
	if errors.Is(err, ErrTimeout) {
		return true
	}
	var ne interface{ Timeout() bool }
	return errors.As(err, &ne) && ne.Timeout()
}

// TestIsTimeout is IsTimeout's truth table, each row also held to the
// errors.As form: a timeout anywhere in the tree by errors.Is, else the
// first Timeout method in pre-order decides, even when a later one would
// say yes.
func TestIsTimeout(t *testing.T) {
	refused := &OpError{Op: "dial", Addr: "10.0.0.1:80", Err: ErrRefused}
	timedOut := &OpError{Op: "dial", Addr: "10.0.0.1:80", Err: ErrTimeout}
	for _, tc := range []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"ErrTimeout", ErrTimeout, true},
		{"ErrReset", ErrReset, false},
		{"ErrRefused", ErrRefused, false},
		{"refused OpError", refused, false},
		{"timed-out OpError", timedOut, true},
		{"wrapped timed-out OpError", fmt.Errorf("fetch: %w", timedOut), true},
		{"DeadlineExceeded", context.DeadlineExceeded, true},
		{"wrapped DeadlineExceeded", fmt.Errorf("lookup: %w", context.DeadlineExceeded), true},
		{"Canceled", context.Canceled, false},
		{"foreign timeout", timeoutErr(true), true},
		{"foreign non-timeout", timeoutErr(false), false},
		{"plain error", errors.New("boom"), false},
		{"Join: ErrTimeout second", errors.Join(ErrReset, ErrTimeout), true},
		{"Join: plain then DeadlineExceeded", errors.Join(errors.New("boom"), context.DeadlineExceeded), true},
		{"Join: refused OpError first", errors.Join(refused, context.DeadlineExceeded), false},
		{"Join: DeadlineExceeded first", errors.Join(context.DeadlineExceeded, refused), true},
		{"Join nested in Join", errors.Join(errors.New("a"), errors.Join(errors.New("b"), timeoutErr(true))), true},
		{"wrapped Join: none", fmt.Errorf("x: %w", errors.Join(ErrReset, ErrRefused)), false},
		{"two %w: refused OpError first", fmt.Errorf("%w / %w", refused, timeoutErr(true)), false},
	} {
		if got := IsTimeout(tc.err); got != tc.want {
			t.Errorf("%s: IsTimeout = %v, want %v", tc.name, got, tc.want)
		}
		if ref := asTimeout(tc.err); ref != tc.want {
			t.Errorf("%s: the errors.As form says %v, want %v", tc.name, ref, tc.want)
		}
	}
}

// TestIsTimeoutAllocs: classifying a refused dial — an error with a
// Timeout method that says no — allocates nothing.
func TestIsTimeoutAllocs(t *testing.T) {
	var err error = &OpError{Op: "dial", Addr: "10.0.0.1:80", Err: ErrRefused}
	if n := testing.AllocsPerRun(100, func() {
		if IsTimeout(err) {
			t.Fatal("a refused dial reads as a timeout")
		}
	}); n != 0 {
		t.Errorf("IsTimeout(refused *OpError) allocates %v times, want 0", n)
	}
}
