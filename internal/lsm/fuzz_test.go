package lsm

import (
	"bytes"
	"testing"

	"bandslim/internal/vlog"
)

// decodeEntry decodes one entry with its own copy of the key.
func decodeEntry(src []byte) (Entry, int, error) {
	kl, addr, size, tomb, n, err := parseEntry(src)
	if err != nil {
		return Entry{}, 0, err
	}
	key := append([]byte(nil), src[1:1+kl]...)
	return Entry{Key: key, Addr: addr, Size: size, Tombstone: tomb}, n, nil
}

// FuzzDecodeEntry hardens the SSTable entry decoder against corrupt page
// bytes: it must never panic, and every successful decode must re-encode to
// the same bytes it consumed.
func FuzzDecodeEntry(f *testing.F) {
	// Seed with a valid encoding and a few mutations.
	e := Entry{Key: []byte("seedkey"), Addr: 123456, Size: 789, Tombstone: true}
	buf := make([]byte, encodedLen(e))
	encodeEntry(buf, e)
	f.Add(buf)
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{255, 1, 2, 3})
	f.Add(bytes.Repeat([]byte{16}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, n, err := decodeEntry(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		if len(got.Key) == 0 || len(got.Key) > MaxKeySize {
			t.Fatalf("decoded key length %d", len(got.Key))
		}
		// Semantic round trip: re-encoding and re-decoding must be a fixed
		// point (reserved flag bits are not preserved, so byte identity is
		// not required).
		re := make([]byte, encodedLen(got))
		m := encodeEntry(re, got)
		if m != n {
			t.Fatalf("re-encode length %d, decoded %d", m, n)
		}
		got2, n2, err := decodeEntry(re)
		if err != nil || n2 != m {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(got2.Key, got.Key) || got2.Addr != got.Addr ||
			got2.Size != got.Size || got2.Tombstone != got.Tombstone {
			t.Fatalf("semantic mismatch: %+v vs %+v", got2, got)
		}
	})
}

// FuzzDecodePage: whole-page decoding must never panic and must return
// key-ordered entries when the page came from a real builder.
func FuzzDecodePage(f *testing.F) {
	store := newMemStore(16)
	alloc := newPageAllocator(16)
	b := newTableBuilder(store, alloc)
	b.start(1, 1)
	for i := 0; i < 50; i++ {
		b.add(0, Entry{Key: []byte{byte(i), byte(i + 1)}, Addr: vlog.Addr(i), Size: uint32(i)})
	}
	table, _, err := b.finish(0)
	if err != nil || table == nil {
		f.Fatal("seed table build failed")
	}
	page, _, err := store.ReadPage(0, table.pages[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), page...))
	f.Add([]byte{3, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, _, err := decodePageInto(nil, nil, data)
		if err != nil {
			return
		}
		for _, e := range entries {
			if len(e.Key) == 0 || len(e.Key) > MaxKeySize {
				t.Fatalf("bad decoded key %x", e.Key)
			}
		}
	})
}
