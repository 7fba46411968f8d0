package storage

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// The fuzz property is the recovery contract: Replay over arbitrary bytes
// must never panic, must stop at the first invalid frame (returning an
// ErrCorrupt-wrapped error, never replaying garbage past it), and every
// record it does deliver must re-encode to bytes that decode back to the
// same record — so a log written by us and damaged by anything (torn tail,
// bit flip, zero-length frame) recovers exactly its valid prefix.
func FuzzReplay(f *testing.F) {
	f.Add(framedSeed())
	f.Add(framedSeed()[:len(framedSeed())-3])           // torn tail
	f.Add(append(framedSeed(), 0, 0, 0, 0, 0, 0, 0, 0)) // zero-length frame
	flipped := framedSeed()
	flipped[len(flipped)/2] ^= 0x10 // bit-flipped checksum or payload
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}) // absurd length field
	// Mid-file damage with intact frames behind it — the ReplayFile
	// history-loss case; plain Replay still just stops at the bad frame.
	midFlip := framedSeed()
	midFlip[frameHeaderLen+2] ^= 0xFF // payload byte of the FIRST frame
	f.Add(midFlip)
	// A leadership change mid-stream: KindTerm frames ride the same log.
	f.Add(append(AppendFrame(nil, EncodeRecord(nil,
		&Record{Kind: KindTerm, UUID: "30.0.0.1:80", Now: 3})), framedSeed()...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []*Record
		good, err := Replay(bytes.NewReader(data), func(r *Record) error {
			recs = append(recs, r)
			return nil
		})
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good offset %d out of [0,%d]", good, len(data))
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("replay error outside the corruption contract: %v", err)
		}
		// Replaying just the good prefix must yield the same records with no
		// tail error — the offset really is a clean cut point.
		var again []*Record
		good2, err2 := Replay(bytes.NewReader(data[:good]), func(r *Record) error {
			again = append(again, r)
			return nil
		})
		if err2 != nil || good2 != good {
			t.Fatalf("good prefix does not replay cleanly: good2=%d err=%v", good2, err2)
		}
		if !reflect.DeepEqual(recs, again) {
			t.Fatalf("prefix replay produced different records")
		}
		// Each delivered record round-trips through the codec.
		for i, r := range recs {
			enc := EncodeRecord(nil, r)
			back, err := DecodeRecord(enc)
			if err != nil {
				t.Fatalf("record %d does not re-decode: %v", i, err)
			}
			if !reflect.DeepEqual(back, r) {
				t.Fatalf("record %d changed across re-encode", i)
			}
		}
	})
}

// FuzzSnapshot holds the snapshot decoder to its contract: on any bytes —
// torn, flipped, foreign — it never panics and returns either ErrCorrupt or a
// State that re-encodes to exactly the bytes it read, each user's span being
// exactly that user's entry. Each input is tried
// twice: as a whole file, and as the payload of a file with a good header
// and checksum, so the engine reaches the payload decoder without having to
// forge a CRC.
func FuzzSnapshot(f *testing.F) {
	good := appendState(nil, sampleState())
	sealFrame(good[len(snapshotMagic):])
	f.Add(good)
	f.Add(good[:len(good)-5]) // torn
	f.Add(good[snapshotHeaderLen:])
	f.Add(good[snapshotHeaderLen : len(good)-1])
	f.Add(AppendFrame([]byte("CSAWSNAP1\n"), []byte(`{"updates":1}`)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, file := range [][]byte{data, sealSnapshot(data)} {
			var users []Span
			st, err := decodeSnapshot(file, &users)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("error outside the corruption contract: %v", err)
				}
				continue
			}
			again := appendState(nil, st)
			sealFrame(again[len(snapshotMagic):])
			if !bytes.Equal(again, file) {
				t.Fatalf("decoded state re-encodes to other bytes:\n got %x\nwant %x", again, file)
			}
			if len(users) != len(st.Users) {
				t.Fatalf("%d spans for %d users", len(users), len(st.Users))
			}
			assertSpans(t, st, file, users)
		}
	})
}

func framedSeed() []byte {
	var b []byte
	for _, r := range []*Record{
		{Kind: KindAddUser, UUID: "fuzz-user"},
		{Kind: KindIngest, UUID: "fuzz-user", Now: 1511568000000000000, Reports: []Report{
			{URL: "blocked.example/", ASN: 17557, Tm: 7,
				Stages: []Stage{{Type: 1, Detail: "redirect"}}},
		}},
		{Kind: KindRevoke, UUID: "fuzz-user"},
	} {
		b = AppendFrame(b, EncodeRecord(nil, r))
	}
	return b
}
