package lsm

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

func TestMemTablePutGet(t *testing.T) {
	m := NewMemTable()
	if err := m.Put([]byte("abc"), 100, 32, false); err != nil {
		t.Fatal(err)
	}
	e, ok := m.Get([]byte("abc"))
	if !ok || e.Addr != 100 || e.Size != 32 || e.Tombstone {
		t.Fatalf("Get = %+v, %v", e, ok)
	}
	if _, ok := m.Get([]byte("zzz")); ok {
		t.Fatal("missing key found")
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestMemTableUpdateInPlace(t *testing.T) {
	m := NewMemTable()
	m.Put([]byte("k"), 1, 1, false)
	m.Put([]byte("k"), 2, 2, false)
	if m.Len() != 1 {
		t.Fatalf("Len = %d after update", m.Len())
	}
	e, _ := m.Get([]byte("k"))
	if e.Addr != 2 || e.Size != 2 {
		t.Fatalf("update lost: %+v", e)
	}
}

func TestMemTableTombstone(t *testing.T) {
	m := NewMemTable()
	m.Put([]byte("k"), 1, 1, false)
	m.Put([]byte("k"), 0, 0, true)
	e, ok := m.Get([]byte("k"))
	if !ok || !e.Tombstone {
		t.Fatal("tombstone not recorded")
	}
}

func TestMemTableKeyValidation(t *testing.T) {
	m := NewMemTable()
	if err := m.Put(nil, 0, 0, false); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := m.Put(make([]byte, 17), 0, 0, false); err == nil {
		t.Fatal("oversized key accepted")
	}
	if err := m.Put(make([]byte, 16), 0, 0, false); err != nil {
		t.Fatalf("16-byte key rejected: %v", err)
	}
}

func TestMemTableKeyIsCopied(t *testing.T) {
	m := NewMemTable()
	k := []byte("abc")
	m.Put(k, 1, 1, false)
	k[0] = 'x'
	if _, ok := m.Get([]byte("abc")); !ok {
		t.Fatal("caller mutation corrupted stored key")
	}
}

func TestMemTableIteratorOrder(t *testing.T) {
	m := NewMemTable()
	// The last keys share 8-byte prefixes once zero-padded, or differ only
	// past the eighth byte.
	keys := []string{"delta", "alpha", "echo", "bravo", "charlie",
		"ab\x00", "abcdefgh\xff", "ab", "abcdefgh", "ab\x00\x00", "abcdefghA",
		"\x00", "abcdefgh\x00", "\xff\xff\xff\xff\xff\xff\xff\xff\x01", "\xff\xff\xff\xff\xff\xff\xff\xff"}
	for i, k := range keys {
		m.Put([]byte(k), 0, uint32(i), false)
	}
	for i, k := range keys {
		if e, ok := m.Get([]byte(k)); !ok || e.Size != uint32(i) {
			t.Fatalf("Get(%q) = %+v, %v", k, e, ok)
		}
	}
	it := m.Iterator()
	var got []string
	for it.Next() {
		got = append(got, string(it.Entry().Key))
	}
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("iterated %d keys", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order: got %v, want %v", got, want)
		}
	}
}

func TestMemTableIteratorSeek(t *testing.T) {
	m := NewMemTable()
	for _, k := range []string{"a", "c", "e", "g"} {
		m.Put([]byte(k), 0, 0, false)
	}
	it := m.Iterator()
	it.Seek(m, []byte("d"))
	if !it.Next() || string(it.Entry().Key) != "e" {
		t.Fatalf("Seek(d) then Next gave %q", it.Entry().Key)
	}
	it.Seek(m, []byte("c"))
	if !it.Next() || string(it.Entry().Key) != "c" {
		t.Fatal("Seek to existing key must include it")
	}
	it.Seek(m, []byte("z"))
	if it.Next() {
		t.Fatal("Seek past end yielded an entry")
	}
}

func TestMemTableApproxBytesGrows(t *testing.T) {
	m := NewMemTable()
	before := m.ApproxBytes()
	m.Put([]byte("abcd"), 0, 0, false)
	if m.ApproxBytes() <= before {
		t.Fatal("ApproxBytes did not grow")
	}
}

// Property: the memtable agrees with a map reference under random workloads,
// and iteration is always sorted and complete.
func TestMemTableMatchesMapProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		m := NewMemTable()
		ref := make(map[string]uint32)
		for i, op := range ops {
			key := []byte(fmt.Sprintf("k%03d", op%300))
			if op%5 == 0 {
				m.Put(key, 0, 0, true)
				ref[string(key)] = 0
				delete(ref, string(key))
				ref[string(key)+"#tomb"] = 1
			} else {
				m.Put(key, 0, uint32(i), false)
				delete(ref, string(key)+"#tomb")
				ref[string(key)] = uint32(i)
			}
		}
		// Every live ref entry must be found with the right size.
		for k, sz := range ref {
			if len(k) >= 4+5 && k[len(k)-5:] == "#tomb" {
				e, ok := m.Get([]byte(k[:len(k)-5]))
				if !ok || !e.Tombstone {
					return false
				}
				continue
			}
			e, ok := m.Get([]byte(k))
			if !ok || e.Tombstone || e.Size != sz {
				return false
			}
		}
		// Iteration is sorted.
		it := m.Iterator()
		var prev []byte
		for it.Next() {
			if prev != nil && bytes.Compare(prev, it.Entry().Key) >= 0 {
				return false
			}
			prev = append(prev[:0], it.Entry().Key...)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
