package netem

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"csaw/internal/vtime"
)

// eventPair is one connection on an event clock: segments are deliverable
// the moment they are written, so reads never wait.
func eventPair() (a, b *Conn) {
	a, b, _, _ = relay(vtime.NewEventDriven())
	return a, b
}

// pinned fails the test unless the live window is all that p's queue
// arrays still reference bytes from. Caller must hold p.mu.
func pinned(t *testing.T, p *pipe) {
	t.Helper()
	arrays := [][]segment{p.back[:cap(p.back)]}
	if &p.back[:1][0] != &p.inline[0] {
		arrays = append(arrays, p.inline[:])
	}
	n := 0
	for _, arr := range arrays {
		for _, s := range arr {
			if s.data != nil {
				n++
			}
		}
	}
	if n != len(p.segs) {
		t.Fatalf("%d queue slots reference bytes, want only the %d queued segments", n, len(p.segs))
	}
}

// TestPipeOwnedHopAllocatesNothing: an owned write and the read that
// drains it reuse the pipe's queue — the segment lands in the inline array
// and the drained queue rewinds — so the hop allocates nothing.
func TestPipeOwnedHopAllocatesNothing(t *testing.T) {
	a, b := eventPair()
	msg := []byte("GET / HTTP/1.1\r\nHost: www.example.com\r\n\r\n")
	buf := make([]byte, 64)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := a.WriteOwned(msg); err != nil {
			t.Fatal(err)
		}
		if n, err := b.Read(buf); err != nil || n != len(msg) {
			t.Fatalf("Read = %d, %v", n, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("owned write + read on a drained pipe allocates %v times, want 0", allocs)
	}
}

// TestPipeFIFOAcrossRewind drives one pipe through every queue move —
// inline array, growth, slide back to the array's start, rewind on drain,
// partial reads — against a reference FIFO: segments come back in write
// order, byte-exact, one segment per Read, and no slot outside the live
// window references a consumed segment's bytes.
func TestPipeFIFOAcrossRewind(t *testing.T) {
	a, b := eventPair()
	rng := rand.New(rand.NewSource(7))
	var want [][]byte // the reference FIFO
	buf := make([]byte, 512)
	seq := 0
	for op := 0; op < 5000; op++ {
		// Bursts of writes before any read, then drain phases.
		if len(want) == 0 || (op/200)%2 == 0 && rng.Intn(3) > 0 {
			seg := []byte(fmt.Sprintf("seg %d/", seq))
			seg = append(seg, bytes.Repeat([]byte{byte(seq)}, rng.Intn(200))...)
			seq++
			if _, err := a.WriteOwned(seg); err != nil {
				t.Fatal(err)
			}
			want = append(want, seg)
		} else {
			limit := len(buf)
			if rng.Intn(4) == 0 {
				limit = 1 + rng.Intn(8) // a partial read of the head segment
			}
			n, err := b.Read(buf[:limit])
			if err != nil {
				t.Fatal(err)
			}
			head := want[0]
			if n != min(len(head), limit) || !bytes.Equal(buf[:n], head[:n]) {
				t.Fatalf("op %d: read %q, want the head of %q", op, buf[:n], head)
			}
			if want[0] = head[n:]; len(want[0]) == 0 {
				want = want[1:]
			}
		}
		p := a.tx
		p.mu.Lock()
		if len(p.segs) != len(want) {
			p.mu.Unlock()
			t.Fatalf("op %d: pipe holds %d segments, reference %d", op, len(p.segs), len(want))
		}
		pinned(t, p)
		if len(want) == 0 && cap(p.segs) != cap(p.back) {
			p.mu.Unlock()
			t.Fatalf("op %d: a drained queue did not rewind to the start of its array", op)
		}
		p.mu.Unlock()
	}
	if cap(a.tx.back) == len(a.tx.inline) {
		t.Fatal("the queue never grew past its inline array: the test does not reach growth")
	}
}

// TestPipeResetUnpinsQueue: a reset drops the queued segments, and with
// them every reference the queue arrays held.
func TestPipeResetUnpinsQueue(t *testing.T) {
	a, _ := eventPair()
	for i := 0; i < 5; i++ {
		if _, err := a.WriteOwned([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	a.Reset()
	p := a.tx
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.segs) != 0 {
		t.Fatalf("%d segments queued after reset", len(p.segs))
	}
	pinned(t, p)
}
