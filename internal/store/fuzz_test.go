package store

import (
	"encoding/binary"
	"testing"

	"github.com/fusedmindlab/transfusion"
)

// FuzzStoreDecode holds the on-disk record decoder to its contract: arbitrary
// bytes — truncations, bit flips, wrong magic or version, lying payload
// lengths, hostile JSON — must produce an error, never a panic or a giant
// allocation, and a successful decode must be internally consistent (the key
// hashes to the checked file name and re-encoding round-trips).
func FuzzStoreDecode(f *testing.F) {
	valid, err := encodeRecord(record{
		Key:         "arch=\"edge\"|model=\"bert\"",
		SavedUnixMS: 1700000000000,
		Result:      transfusion.RunResult{Arch: "edge", Model: "bert", SeqLen: 1024, Cycles: 12345, Tile: "M=64"},
	})
	if err != nil {
		f.Fatal(err)
	}

	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(magic))
	// Every truncation boundary of a valid record.
	for _, cut := range []int{1, 4, 8, headerSize, headerSize + 1, len(valid) - checksumSize, len(valid) - 1} {
		f.Add(append([]byte{}, valid[:cut]...))
	}
	// Bit flips in the header, payload, and checksum.
	for _, off := range []int{0, 5, headerSize + 2, len(valid) - 2} {
		mut := append([]byte{}, valid...)
		mut[off] ^= 0x80
		f.Add(mut)
	}
	// Wrong schema version with a recomputed, valid checksum.
	skew := append([]byte{}, valid[:len(valid)-checksumSize]...)
	binary.LittleEndian.PutUint32(skew[4:8], SchemaVersion^0xdeadbeef)
	f.Add(appendChecksum(skew))
	// A header claiming a payload far larger than the file (and than the
	// allocation limit).
	lie := append([]byte{}, valid...)
	binary.LittleEndian.PutUint64(lie[8:headerSize], 1<<40)
	f.Add(lie)
	// Trailing garbage after an otherwise valid record.
	f.Add(append(append([]byte{}, valid...), 0xff, 0x00, 0x7f))

	wantFile := FileName("arch=\"edge\"|model=\"bert\"")
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeRecord(data, wantFile)
		if err != nil {
			return // rejected: the only other acceptable outcome is below
		}
		// Anything the decoder accepts must be self-consistent...
		if rec.Key == "" {
			t.Fatal("decoder accepted a record with an empty key")
		}
		if FileName(rec.Key) != wantFile {
			t.Fatalf("decoder accepted key %q that does not hash to %s", rec.Key, wantFile)
		}
		// ...and survive a re-encode/re-decode round trip.
		again, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("re-encoding an accepted record: %v", err)
		}
		if _, err := decodeRecord(again, wantFile); err != nil {
			t.Fatalf("round trip of an accepted record failed: %v", err)
		}

		// The name-unchecked mode used before a key is known must agree on
		// validity (it only skips the file-name comparison).
		if _, err := decodeRecord(data, ""); err != nil {
			t.Fatalf("decode succeeded with a name check but failed without: %v", err)
		}
	})
}

// FuzzNearestMatchesScan derives a store operation sequence (Puts,
// overwrites, eviction, quarantine, reopen; see runNearestOps) from the fuzz
// bytes and requires the indexed Nearest to agree with the full reference
// scan after every step.
func FuzzNearestMatchesScan(f *testing.F) {
	f.Add([]byte{0, 3, 2, 0, 9, 2, 1, 15, 2, 4, 0, 5})
	f.Add([]byte{0, 2, 2, 1, 3, 2, 2, 4, 2, 0, 5, 2, 3, 0, 5, 2, 0, 8, 2})
	f.Add([]byte{0, 0, 2, 0, 1, 2, 0, 26, 0, 5, 1, 0, 27, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		runNearestOps(t, ops)
	})
}
