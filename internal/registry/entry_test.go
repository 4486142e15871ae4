package registry

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cdbtune/internal/core"
	"cdbtune/internal/vfs"
)

// TestOldFormatEntrySkippedLoudly: an entry file left by the reg1 format
// (one gob of {Meta, Model} in the CRC frame) is not decoded by a second
// reader — it is skipped like any unreadable entry, loudly: logged, listed
// in Corrupt with the older-version reason, never a Nearest candidate. A
// later Put of the same ID replaces the file and clears the record.
func TestOldFormatEntrySkippedLoudly(t *testing.T) {
	dir := t.TempDir()
	old := struct {
		Meta  Meta
		Model []byte
	}{Meta{ID: "m0007", Workload: "w-old", Fingerprint: fp(1), Version: 3, Seq: 9}, fakeModel("old")}
	var payload, file bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(old); err != nil {
		t.Fatal(err)
	}
	if err := core.WriteFramed(&file, payload.Bytes(), [4]byte{'r', 'e', 'g', '1'}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "m0007.model"), file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var logged []string
	r, err := Open(dir, WithLogf(func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}))
	if err != nil {
		t.Fatal(err)
	}
	if reason := r.Corrupt()["m0007.model"]; !strings.Contains(reason, "written by an older version") {
		t.Fatalf("old-format entry not recorded with the older-version reason: %v", r.Corrupt())
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "m0007.model") {
		t.Fatalf("old-format entry not logged exactly once: %q", logged)
	}
	if r.Len() != 0 {
		t.Fatalf("old-format entry indexed: %d entries", r.Len())
	}
	if m, ok := r.Nearest(fp(1)); ok {
		t.Fatalf("Nearest served old-format entry %s", m.Meta.ID)
	}
	if healthy, bad := r.Verify(); healthy != 0 || len(bad) != 1 {
		t.Fatalf("Verify: %d healthy, corrupt %v", healthy, bad)
	}

	// A fresh entry next to it is served; the old file is still skipped.
	fresh, err := r.Put(Meta{Workload: "w-new", Fingerprint: fp(5)}, fakeModel("new"))
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == "m0007" {
		t.Fatal("new entry took the unreadable file's ID")
	}
	if m, ok := r.Nearest(fp(1)); !ok || m.Meta.ID != fresh.ID {
		t.Fatalf("Nearest = %v %v, want the fresh entry", m.Meta.ID, ok)
	}

	// Re-registering the ID rewrites the file in the current format.
	if _, err := r.Put(Meta{ID: "m0007", Workload: "w-old", Fingerprint: fp(1)}, fakeModel("retrained")); err != nil {
		t.Fatal(err)
	}
	if len(r.Corrupt()) != 0 {
		t.Fatalf("Put of the same ID did not clear the corrupt record: %v", r.Corrupt())
	}
	m, ok := r.Nearest(fp(1))
	if !ok || m.Meta.ID != "m0007" || !bytes.Equal(m.Model, fakeModel("retrained")) {
		t.Fatalf("Nearest after re-registering = %v %v", m.Meta.ID, ok)
	}
	if r2 := quietOpen(t, dir); r2.Len() != 2 || len(r2.Corrupt()) != 0 {
		t.Fatalf("reopen: %d entries, corrupt %v", r2.Len(), r2.Corrupt())
	}
}

// TestPutFaultMidStreamKeepsOldEntry: the entry is streamed to the temp
// file in three writes (meta header, model, footer). A full disk or an I/O
// error at any of them — or at the fsync behind them — fails the Put with
// a retryable error, removes the temp file and leaves the previous version
// of the entry readable; the retry goes through.
func TestPutFaultMidStreamKeepsOldEntry(t *testing.T) {
	for _, fault := range []vfs.Fault{
		{Kind: "write", PathContains: ".model.tmp-", Skip: 0, Err: vfs.ErrNoSpace, Partial: 2},
		{Kind: "write", PathContains: ".model.tmp-", Skip: 1, Err: vfs.ErrNoSpace, Partial: 17},
		{Kind: "write", PathContains: ".model.tmp-", Skip: 2, Err: vfs.ErrIO, Partial: -1},
		{Kind: "sync", PathContains: ".model.tmp-", Err: vfs.ErrIO},
	} {
		fs := vfs.NewFaultFS()
		r := quietOpen(t, "/reg", WithFS(fs))
		v1, err := r.Put(Meta{Workload: "w", Fingerprint: fp(1)}, fakeModel("v1"))
		if err != nil {
			t.Fatal(err)
		}
		fs.AddFault(fault)
		if _, err := r.Put(Meta{ID: v1.ID, Workload: "w", Fingerprint: fp(1)}, fakeModel("v2")); !vfs.Retryable(err) {
			t.Fatalf("%+v: Put error %v, want a retryable one", fault, err)
		}
		if tmp, _ := fs.Glob("/reg/*.tmp-*"); len(tmp) != 0 {
			t.Fatalf("%+v: failed Put left temp files %v", fault, tmp)
		}
		if m, model, err := r.Get(v1.ID); err != nil || m.Version != 1 || !bytes.Equal(model, fakeModel("v1")) {
			t.Fatalf("%+v: after the failed Put, Get = v%d %q, %v", fault, m.Version, model, err)
		}
		if _, err := r.Put(Meta{ID: v1.ID, Workload: "w", Fingerprint: fp(1)}, fakeModel("v2")); err != nil {
			t.Fatalf("%+v: retry: %v", fault, err)
		}
		if m, ok := r.Nearest(fp(1)); !ok || !bytes.Equal(m.Model, fakeModel("v2")) || len(r.Corrupt()) != 0 {
			t.Fatalf("%+v: after the retry, Nearest = %q %v, corrupt %v", fault, m.Model, ok, r.Corrupt())
		}
	}
}

// FuzzReadEntry feeds the entry decoder arbitrary file bytes, both raw
// (almost always stopped by the CRC footer) and re-framed with a valid
// footer so the meta-header parsing behind it is reached: it must never
// panic, and whatever it accepts is a non-empty model that is a sub-slice
// of the input under a named entry.
func FuzzReadEntry(f *testing.F) {
	fs := vfs.NewFaultFS()
	r, err := Open("/reg", WithFS(fs), WithLogf(func(string, ...any) {}))
	if err != nil {
		f.Fatal(err)
	}
	m, err := r.Put(Meta{Workload: "sysbench-rw", Instance: "CDB-A", Fingerprint: fp(1), Pinned: true}, fakeModel("seed"))
	if err != nil {
		f.Fatal(err)
	}
	good, err := fs.ReadFile(r.path(m.ID))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-8]) // payload without its footer
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // header length with nothing behind it
	f.Add([]byte{0, 0, 0, 0, 'x'})        // empty meta gob

	f.Fuzz(func(t *testing.T, data []byte) {
		var framed bytes.Buffer
		if err := core.WriteFramed(&framed, data, entryMagic); err != nil {
			t.Fatal(err)
		}
		for _, file := range [][]byte{data, framed.Bytes()} {
			blob, err := decodeEntry(file)
			if err != nil {
				continue
			}
			if blob.Meta.ID == "" || len(blob.Model) == 0 {
				t.Fatalf("accepted an entry with ID %q and %d model bytes", blob.Meta.ID, len(blob.Model))
			}
			if end := len(file) - 8; &blob.Model[len(blob.Model)-1] != &file[end-1] {
				t.Fatal("accepted model is not the tail of the framed payload")
			}
		}
	})
}
