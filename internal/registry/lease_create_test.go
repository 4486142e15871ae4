package registry

import (
	"os"
	"testing"
	"time"

	"cdbtune/internal/vfs"
)

// appearFS runs onAppear once, right after the call that brings path into
// existence (an exclusive create or a link) returns — the instant a racing
// handle first gets to see the lease file.
type appearFS struct {
	vfs.FS
	path     string
	onAppear func()
}

func (a *appearFS) appeared(name string, err error) {
	if f := a.onAppear; err == nil && name == a.path && f != nil {
		a.onAppear = nil
		f()
	}
}

func (a *appearFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := a.FS.OpenFile(name, flag, perm)
	if flag&os.O_EXCL != 0 {
		a.appeared(name, err)
	}
	return f, err
}

func (a *appearFS) Link(oldname, newname string) error {
	err := a.FS.Link(oldname, newname)
	a.appeared(newname, err)
	return err
}

// TestLeaseCreateIsAtomic: the first record of a lease appears complete. A
// handle that looks at the lease path the moment it exists must find a live
// lease it cannot take — when the file was created empty and filled in
// afterwards, that handle read an unparsable record, took the "unreadable ⇒
// steal" branch, and both handles ended up holding the lease (the
// double-hold behind TestLeaseMutualExclusion's flakes).
func TestLeaseCreateIsAtomic(t *testing.T) {
	path := leasePath(t)
	racer := NewLease(path, "racer", time.Minute)
	var racerOK bool
	var racerErr error
	fs := &appearFS{FS: vfs.OS, path: path, onAppear: func() { racerOK, racerErr = racer.TryAcquire() }}
	first := NewLeaseFS(fs, path, "first", time.Minute)

	ok, err := first.TryAcquire()
	if err != nil || !ok {
		t.Fatalf("creator: acquired=%v err=%v", ok, err)
	}
	if fs.onAppear != nil {
		t.Fatal("the racer never ran: the lease path appeared through a call the test does not watch")
	}
	if racerErr != nil || racerOK || racer.Held() {
		t.Fatalf("racer took the lease mid-create (acquired=%v held=%v err=%v) while the creator holds it too", racerOK, racer.Held(), racerErr)
	}
	info, exists, err := racer.Read()
	if err != nil || !exists || info.Owner != "first" || info.Epoch != 1 {
		t.Fatalf("lease record after create = %+v exists=%v err=%v, want first@1", info, exists, err)
	}
	if left, _ := vfs.OS.Glob(path + ".*"); len(left) != 0 {
		t.Fatalf("create left files behind: %v", left)
	}
}
