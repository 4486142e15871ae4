package registry

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"reflect"
	"testing"

	"cdbtune/internal/vfs"
)

// intactPrefix is FuzzChangeLogTail's oracle, written from the frame
// layout rather than from tailLocked: the records of the longest prefix of
// intact frames, and whether the bytes after that prefix are damage. They
// are not damage only when they are a torn tail, a strict prefix of some
// frame a writer could have been appending: the magic, then a length in
// 1..1 MiB, then fewer bytes than that frame needs. (A partial length
// field is not judged: its missing high bytes could still make it valid.)
func intactPrefix(data []byte) (recs []Change, damaged bool) {
	for len(data) > 0 {
		if len(data) < 8 {
			return recs, !bytes.HasPrefix(walMagic[:], data[:min(4, len(data))])
		}
		n := int(binary.LittleEndian.Uint32(data[4:8]))
		if !bytes.Equal(data[:4], walMagic[:]) || n == 0 || n > 1<<20 {
			return recs, true
		}
		if len(data) < 8+n+4 {
			return recs, false
		}
		payload := data[8 : 8+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[8+n:]) {
			return recs, true
		}
		var ch Change
		if json.Unmarshal(payload, &ch) != nil {
			return recs, true
		}
		recs = append(recs, ch)
		data = data[8+n+4:]
	}
	return recs, false
}

// FuzzChangeLogTail feeds ChangeLog.Tail arbitrary log bytes: it must not
// panic, it must return exactly the records of the longest prefix of
// intact frames, and it must return an error if and only if what follows
// that prefix is damage rather than a torn tail. A second Tail reads
// nothing new and reports the same.
func FuzzChangeLogTail(f *testing.F) {
	fs := vfs.NewFaultFS()
	log, err := OpenChangeLogFS(fs, "/seed.wal")
	if err != nil {
		f.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		if _, err := log.Append(Change{Op: OpPut, ID: id, Version: 1}); err != nil {
			f.Fatal(err)
		}
	}
	valid, err := fs.ReadFile("/seed.wal")
	if err != nil {
		f.Fatal(err)
	}
	frame := valid[:len(valid)/3] // the first frame: the three differ only in ID and seq
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-1] ^= 0xff
	header := func(n uint32) []byte {
		return binary.LittleEndian.AppendUint32(append([]byte(nil), walMagic[:]...), n)
	}
	f.Add(valid)
	f.Add(append(bytes.Clone(valid), frame[:5]...))            // torn header
	f.Add(append(bytes.Clone(valid), frame[:len(frame)-3]...)) // torn payload
	f.Add(flipped)                                             // flipped CRC byte
	f.Add(append(header(0), 0, 0, 0, 0))
	f.Add(append(header(1<<20+1), make([]byte, 16)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		fs := vfs.NewFaultFS()
		w, err := fs.OpenFile("/x.wal", os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		w.Close()
		log, err := OpenChangeLogFS(fs, "/x.wal")
		if err != nil {
			t.Fatal(err)
		}
		defer log.Close()

		want, damaged := intactPrefix(data)
		got, err := log.Tail()
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("Tail returned %d records %+v, the intact prefix holds %d: %+v", len(got), got, len(want), want)
		}
		if (err != nil) != damaged {
			t.Fatalf("Tail error %v, but damage after the intact prefix is %v", err, damaged)
		}
		again, err := log.Tail()
		if len(again) != 0 || (err != nil) != damaged {
			t.Fatalf("second Tail returned %d records, error %v (damage %v)", len(again), err, damaged)
		}
	})
}
