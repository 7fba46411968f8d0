package netem

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"testing"
	"time"

	"csaw/internal/leakcheck"
	"csaw/internal/vtime"
)

// relay builds left ↔ [a ~ b] ↔ right: whatever moves a's received segments
// onto b is the relay under test.
func relay(clock *vtime.Clock) (left, a, b, right *Conn) {
	n := New(clock, WithSeed(1))
	left, a = connPair(n, time.Millisecond, Addr{IP: "10.0.0.1", Port: 1}, Addr{IP: "10.0.0.2", Port: 2}, Flow{})
	b, right = connPair(n, time.Millisecond, Addr{IP: "10.0.0.2", Port: 3}, Addr{IP: "10.0.0.3", Port: 4}, Flow{})
	return left, a, b, right
}

// pattern is n bytes no two 32 KiB chunks of which are equal.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i ^ i>>8 ^ i>>15)
	}
	return b
}

// queued returns the sizes of the segments waiting in c's send direction.
func queued(c *Conn) []int {
	c.tx.mu.Lock()
	defer c.tx.mu.Unlock()
	sizes := make([]int, len(c.tx.segs))
	for i, s := range c.tx.segs {
		sizes[i] = len(s.data)
	}
	return sizes
}

// TestWriteToChunksLikeCopyBuffer: the writes WriteTo makes on the
// destination — each one a serialization slot — are the ones io.Copy's 32 KiB read-then-write loop made before
// Conn had a WriteTo: one per segment, cut at 32 KiB, never merged.
func TestWriteToChunksLikeCopyBuffer(t *testing.T) {
	const k = 1 << 10
	cases := []struct {
		name string
		segs []int // sizes written on the far side, one Write each
		want []int // sizes arriving on the destination's pipe
	}{
		{"1 B", []int{1}, []int{1}},
		{"4 KiB", []int{4 * k}, []int{4 * k}},
		{"32 KiB", []int{32 * k}, []int{32 * k}},
		{"32 KiB + 1", []int{32*k + 1}, []int{32 * k, 1}},
		{"100 KiB", []int{100 * k}, []int{32 * k, 32 * k, 32 * k, 4 * k}},
		{"segments stay apart, empty ones vanish", []int{1, 40 * k, 0, 5}, []int{1, 32 * k, 8 * k, 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t)
			var sent []byte
			run := func(copyAll func(dst, src *Conn) (int64, error)) []int {
				left, a, b, right := relay(vtime.NewEventDriven())
				defer right.shutdown()
				sent = sent[:0]
				for i, size := range tc.segs {
					seg := pattern(size + i)[i:]
					sent = append(sent, seg...)
					if _, err := left.Write(seg); err != nil {
						t.Fatal(err)
					}
				}
				left.shutdown()
				if n, err := copyAll(b, a); err != nil || n != int64(len(sent)) {
					t.Fatalf("copied %d bytes, err %v; want %d, nil", n, err, len(sent))
				}
				sizes := queued(b)
				b.shutdown()
				if got, err := io.ReadAll(right); err != nil || !bytes.Equal(got, sent) {
					t.Fatalf("destination read %d bytes, err %v; want the %d sent", len(got), err, len(sent))
				}
				return sizes
			}
			got := run(func(dst, src *Conn) (int64, error) { return src.WriteTo(dst) })
			// The reference: io.Copy with the source's WriteTo hidden from it.
			ref := run(func(dst, src *Conn) (int64, error) { return io.Copy(dst, struct{ io.Reader }{src}) })
			if !reflect.DeepEqual(got, tc.want) || !reflect.DeepEqual(ref, tc.want) {
				t.Errorf("destination segments: WriteTo %v, io.Copy's buffer loop %v, want %v", got, ref, tc.want)
			}
		})
	}
}

// TestWriteCopiesWriteOwnedAliases: Write keeps its net.Conn contract (the
// caller may scribble over its buffer afterwards); WriteOwned is the one
// entry that makes a pipe alias caller memory, and WriteTo then carries
// those very bytes onto the next connection.
func TestWriteCopiesWriteOwnedAliases(t *testing.T) {
	leakcheck.Check(t)
	left, a, b, right := relay(vtime.NewEventDriven())
	defer right.shutdown()

	buf := []byte("original")
	if _, err := left.Write(buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "SCRIBBLE")
	owned := []byte("handed over")
	if _, err := left.WriteOwned(owned); err != nil {
		t.Fatal(err)
	}
	left.shutdown()
	if _, err := a.WriteTo(b); err != nil {
		t.Fatal(err)
	}
	b.tx.mu.Lock()
	copied, aliased := b.tx.segs[0].data, b.tx.segs[1].data
	b.tx.mu.Unlock()
	if string(copied) != "original" {
		t.Errorf("reader of a Write sees %q after the caller reused its buffer, want %q", copied, "original")
	}
	if &aliased[0] != &owned[0] {
		t.Error("WriteOwned then WriteTo copied the bytes; want the caller's own array on the second pipe")
	}
	b.shutdown()
	if got, _ := io.ReadAll(right); string(got) != "originalhanded over" {
		t.Errorf("destination read %q", got)
	}
}

// TestWriteToEndings: how a WriteTo parked on an idle source ends.
func TestWriteToEndings(t *testing.T) {
	cases := []struct {
		name  string
		event bool
		// end is called with WriteTo(b) parked (or about to park) on a.
		end  func(t *testing.T, left, b *Conn, clock *vtime.Clock)
		want func(error) bool
	}{
		{"source reset", true, func(_ *testing.T, left, _ *Conn, _ *vtime.Clock) { left.Reset() }, IsReset},
		{"destination reset", true, func(t *testing.T, left, b *Conn, _ *vtime.Clock) {
			b.Reset()
			if _, err := left.Write([]byte("x")); err != nil { // the write to b is what notices
				t.Error(err)
			}
		}, IsReset},
		{"source closed", true, func(_ *testing.T, left, _ *Conn, _ *vtime.Clock) { left.shutdown() }, func(err error) bool { return err == nil }},
		{"read deadline, event clock", true, func(_ *testing.T, _, _ *Conn, clock *vtime.Clock) { clock.Advance(2 * time.Second) }, IsTimeout},
		{"read deadline, scaled clock", false, func(*testing.T, *Conn, *Conn, *vtime.Clock) {}, IsTimeout},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t)
			clock := vtime.New(testScale)
			if tc.event {
				clock = vtime.NewEventDriven()
			}
			left, a, b, right := relay(clock)
			defer left.shutdown()
			defer right.shutdown()
			ctx, cancel := clock.WithTimeout(context.Background(), time.Second)
			defer cancel()
			defer Bind(ctx, a).Release()
			done := make(chan error, 1)
			go func() {
				_, err := a.WriteTo(b)
				done <- err
			}()
			tc.end(t, left, b, clock)
			select {
			case err := <-done:
				if !tc.want(err) {
					t.Fatalf("WriteTo ended with %v", err)
				}
			case <-time.After(10 * time.Second): //lint:allow-realtime test watchdog
				t.Fatal("WriteTo never returned")
			}
		})
	}
}

// TestWriteToBackpressure: a relay in front of a slow reader holds at most
// the pipe cap plus the chunk in hand, and the writer behind it is held
// back the same way — moving segments by reference must not un-count them.
func TestWriteToBackpressure(t *testing.T) {
	leakcheck.Check(t)
	left, a, b, right := relay(vtime.NewEventDriven())
	const total, seg = 2 << 20, 64 << 10
	sent := pattern(total)
	go func() {
		for off := 0; off < total; off += seg {
			if _, err := left.Write(sent[off : off+seg]); err != nil {
				t.Error(err)
				break
			}
		}
		left.shutdown()
	}()
	go func() {
		if _, err := a.WriteTo(b); err != nil {
			t.Error(err)
		}
		b.shutdown()
	}()
	unread := func(p *pipe) int {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.unread
	}
	var got []byte
	buf := make([]byte, 3000)
	for {
		if n := unread(b.tx); n >= defaultPipeCap+copyChunk {
			t.Fatalf("relay queued %d bytes on its destination; cap %d + one %d chunk", n, defaultPipeCap, copyChunk)
		}
		if n := unread(a.rx); n >= defaultPipeCap+seg {
			t.Fatalf("writer queued %d bytes behind the relay; cap %d + one %d write", n, defaultPipeCap, seg)
		}
		n, err := right.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			if err != io.EOF {
				t.Fatal(err)
			}
			break
		}
	}
	if !bytes.Equal(got, sent) {
		t.Fatalf("read %d bytes, want the %d sent, in order", len(got), total)
	}
	right.shutdown()
}

// shortWriter accepts one byte less than it is given.
type shortWriter struct{}

func (shortWriter) Write(b []byte) (int, error) { return len(b) - 1, nil }

// TestWriteToPlainWriter: a destination that is not a *Conn gets ordinary
// Writes of the same chunks.
func TestWriteToPlainWriter(t *testing.T) {
	leakcheck.Check(t)
	left, a, _, _ := relay(vtime.NewEventDriven())
	sent := pattern(70 << 10)
	if _, err := left.Write(sent); err != nil {
		t.Fatal(err)
	}
	if _, err := left.Write(sent[:10]); err != nil {
		t.Fatal(err)
	}
	left.shutdown()
	if n, err := a.WriteTo(shortWriter{}); err != io.ErrShortWrite || n != copyChunk-1 {
		t.Fatalf("short writer: %d, %v; want %d, io.ErrShortWrite", n, err, copyChunk-1)
	}
	var out bytes.Buffer
	if n, err := io.Copy(&out, a); err != nil || n != int64(len(sent)-copyChunk+10) {
		t.Fatalf("io.Copy to a buffer: %d, %v", n, err)
	}
	if want := append(sent[copyChunk:len(sent):len(sent)], sent[:10]...); !bytes.Equal(out.Bytes(), want) {
		t.Fatal("buffer holds different bytes than were sent")
	}
}
