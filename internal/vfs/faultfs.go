package vfs

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// ErrCrashed is what every FaultFS operation returns after the simulated
// power cut fires: the process whose disk this is can do no further I/O.
var ErrCrashed = errors.New("vfs: simulated power cut")

// Injectable disk errors. They are the real syscall values so errors.Is
// and Retryable treat injected faults exactly like production ones.
var (
	ErrNoSpace error = syscall.ENOSPC
	ErrIO      error = syscall.EIO
)

// DefaultSectorSize is the granularity at which an un-synced write can be
// torn by a power cut: the crash image may hold any sector-aligned prefix
// of the write. Real disks persist whole sectors; sub-sector frames are
// torn only when they span a sector boundary.
const DefaultSectorSize = 512

// Op is one logged mutating filesystem operation. Crash points are the
// boundaries before each Op: CrashBefore(i) simulates losing power before
// ops[i] executed.
type Op struct {
	Index int
	Kind  string // "create", "write", "sync", "truncate", "rename", "remove", "link", "mkdir", "syncdir"
	Path  string
}

func (o Op) String() string { return fmt.Sprintf("#%d %s %s", o.Index, o.Kind, o.Path) }

// Fault is one injection rule: the Nth-and-later mutating operations
// matching Kind/PathContains fail with Err. For writes, Partial >= 0
// applies the first Partial bytes before failing — the short write a
// full disk produces mid-frame.
type Fault struct {
	Kind         string // must equal Op.Kind; "" matches any kind
	PathContains string // substring match on the path; "" matches any path
	Skip         int    // skip this many matching ops before firing
	Count        int    // fire at most this many times (<=0 means once)
	Err          error  // error to return (nil defaults to ErrIO)
	Partial      int    // writes only: bytes applied before failing; <0 applies none

	hits int
}

// FaultFS is a deterministic in-memory filesystem that distinguishes
// volatile state (what the running process observes) from durable state
// (what survives a power cut): file bytes become durable on File.Sync,
// directory entries (creates, renames, removes, links) on SyncDir, new
// directories when their parent is fsynced. Every mutating operation is
// logged; CrashBefore arms a power cut at an op boundary, after which all
// operations fail with ErrCrashed; CrashImage / CrashImageTorn then
// materialize the surviving disk as a fresh, fault-free FaultFS to run
// recovery against.
type FaultFS struct {
	mu     sync.Mutex
	root   *fnode
	clock  func() time.Time
	sector int
	nextID uint64
	tmpSeq int

	ops     []Op
	crashAt int // crash before mutating op with this index; <0 disarmed
	crashed bool
	faults  []*Fault
}

// NewFaultFS returns an empty filesystem with no faults armed.
func NewFaultFS() *FaultFS {
	fs := &FaultFS{clock: time.Now, sector: DefaultSectorSize, crashAt: -1}
	fs.root = fs.newNode(true)
	return fs
}

// SetClock overrides the clock used to stamp mtimes, so lease-staleness
// logic driven by a fake clock sees consistent file times.
func (fs *FaultFS) SetClock(now func() time.Time) {
	fs.mu.Lock()
	fs.clock = now
	fs.mu.Unlock()
}

// SetSectorSize overrides the torn-write granularity (default 512).
func (fs *FaultFS) SetSectorSize(n int) {
	fs.mu.Lock()
	if n > 0 {
		fs.sector = n
	}
	fs.mu.Unlock()
}

// CrashBefore arms the power cut: the mutating operation with index n
// (and everything after it) fails with ErrCrashed. n = OpCount() of a
// completed run crashes after the final op.
func (fs *FaultFS) CrashBefore(n int) {
	fs.mu.Lock()
	fs.crashAt = n
	fs.mu.Unlock()
}

// Crashed reports whether the armed power cut has fired.
func (fs *FaultFS) Crashed() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.crashed
}

// OpCount reports how many mutating operations have executed.
func (fs *FaultFS) OpCount() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.ops)
}

// Ops returns a copy of the mutating-operation log.
func (fs *FaultFS) Ops() []Op {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]Op(nil), fs.ops...)
}

// AddFault arms one injection rule.
func (fs *FaultFS) AddFault(f Fault) {
	fs.mu.Lock()
	cp := f
	fs.faults = append(fs.faults, &cp)
	fs.mu.Unlock()
}

// ---------------------------------------------------------------------------
// nodes

// fileOp is one un-synced content mutation, kept so a crash image can
// tear the file at sector granularity.
type fileOp struct {
	truncate bool
	size     int64 // truncate only
	off      int64
	data     []byte
}

// nsOp is one un-synced namespace mutation in a directory: names removed
// and names added, applied atomically (a same-directory rename is one op).
type nsOp struct {
	del []string
	add map[string]*fnode
}

type fnode struct {
	id    uint64
	dir   bool
	mode  os.FileMode
	mtime time.Time

	// file state
	data    []byte   // volatile content (what open handles observe)
	durable []byte   // content as of the last Sync
	pending []fileOp // un-synced content ops since the last Sync

	// directory state
	children  map[string]*fnode // volatile entries
	durableCh map[string]*fnode // entries as of the last SyncDir
	nsPending []nsOp            // un-synced namespace ops since the last SyncDir
}

func (fs *FaultFS) newNode(dir bool) *fnode {
	fs.nextID++
	n := &fnode{id: fs.nextID, dir: dir, mtime: fs.clock()}
	if dir {
		n.mode = 0o755 | os.ModeDir
		n.children = make(map[string]*fnode)
		n.durableCh = make(map[string]*fnode)
	} else {
		n.mode = 0o644
	}
	return n
}

func splitPath(p string) []string {
	p = filepath.ToSlash(filepath.Clean(p))
	p = strings.TrimPrefix(p, "/")
	if p == "" || p == "." {
		return nil
	}
	return strings.Split(p, "/")
}

// lookup resolves a path; callers hold fs.mu.
func (fs *FaultFS) lookup(p string) (*fnode, bool) {
	n := fs.root
	for _, part := range splitPath(p) {
		if !n.dir {
			return nil, false
		}
		c, ok := n.children[part]
		if !ok {
			return nil, false
		}
		n = c
	}
	return n, true
}

// lookupDir resolves a path's parent directory and final name.
func (fs *FaultFS) lookupDir(p string) (*fnode, string, bool) {
	parts := splitPath(p)
	if len(parts) == 0 {
		return nil, "", false
	}
	n := fs.root
	for _, part := range parts[:len(parts)-1] {
		c, ok := n.children[part]
		if !ok || !c.dir {
			return nil, "", false
		}
		n = c
	}
	return n, parts[len(parts)-1], true
}

// ---------------------------------------------------------------------------
// gates

func pathErr(op, path string, err error) error {
	return &os.PathError{Op: op, Path: path, Err: err}
}

// rgate fails every operation once the power cut has fired; callers hold
// fs.mu.
func (fs *FaultFS) rgate(op, path string) error {
	if fs.crashed {
		return pathErr(op, path, ErrCrashed)
	}
	return nil
}

// mutgate is the crash-point and fault-injection boundary in front of
// every mutating operation; callers hold fs.mu and have already validated
// the operation (a doomed-anyway op is not a distinct crash point). It
// returns the matched fault (nil if none) so write paths can honor
// Partial.
func (fs *FaultFS) mutgate(kind, path string) (*Fault, error) {
	if fs.crashed {
		return nil, pathErr(kind, path, ErrCrashed)
	}
	if fs.crashAt >= 0 && len(fs.ops) >= fs.crashAt {
		fs.crashed = true
		return nil, pathErr(kind, path, ErrCrashed)
	}
	fs.ops = append(fs.ops, Op{Index: len(fs.ops), Kind: kind, Path: path})
	for _, f := range fs.faults {
		if f.Kind != "" && f.Kind != kind {
			continue
		}
		if f.PathContains != "" && !strings.Contains(path, f.PathContains) {
			continue
		}
		max := f.Count
		if max <= 0 {
			max = 1
		}
		if f.hits >= f.Skip+max {
			continue
		}
		f.hits++
		if f.hits <= f.Skip {
			continue
		}
		err := f.Err
		if err == nil {
			err = ErrIO
		}
		return f, pathErr(kind, path, err)
	}
	return nil, nil
}

// ---------------------------------------------------------------------------
// FS implementation

func (fs *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.rgate("open", name); err != nil {
		return nil, err
	}
	n, ok := fs.lookup(name)
	switch {
	case ok && n.dir:
		return nil, pathErr("open", name, syscall.EISDIR)
	case ok && flag&os.O_CREATE != 0 && flag&os.O_EXCL != 0:
		return nil, pathErr("open", name, os.ErrExist)
	case !ok && flag&os.O_CREATE == 0:
		return nil, pathErr("open", name, os.ErrNotExist)
	}
	if !ok {
		parent, base, pok := fs.lookupDir(name)
		if !pok || parent == nil {
			return nil, pathErr("open", name, os.ErrNotExist)
		}
		if _, err := fs.mutgate("create", name); err != nil {
			return nil, err
		}
		n = fs.newNode(false)
		n.mode = perm
		parent.children[base] = n
		parent.nsPending = append(parent.nsPending, nsOp{add: map[string]*fnode{base: n}})
		parent.mtime = fs.clock()
	} else if flag&os.O_TRUNC != 0 && flag&(os.O_WRONLY|os.O_RDWR) != 0 {
		if _, err := fs.mutgate("truncate", name); err != nil {
			return nil, err
		}
		n.data = nil
		n.pending = append(n.pending, fileOp{truncate: true, size: 0})
		n.mtime = fs.clock()
	}
	h := &faultFile{fs: fs, node: n, name: name, flag: flag}
	if flag&os.O_APPEND != 0 {
		h.off = int64(len(n.data))
	}
	return h, nil
}

func (fs *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	// Like os.CreateTemp: deterministic sequence instead of random names,
	// but still skipping names that already exist (a crash image can hold
	// a dead writer's leftover temp file).
	for try := 0; ; try++ {
		fs.mu.Lock()
		fs.tmpSeq++
		seq := fs.tmpSeq
		fs.mu.Unlock()
		var name string
		if i := strings.LastIndex(pattern, "*"); i >= 0 {
			name = pattern[:i] + fmt.Sprintf("%06d", seq) + pattern[i+1:]
		} else {
			name = pattern + fmt.Sprintf("%06d", seq)
		}
		f, err := fs.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o600)
		if err != nil && os.IsExist(err) && try < 10000 {
			continue
		}
		return f, err
	}
}

func (fs *FaultFS) Rename(oldpath, newpath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.rgate("rename", oldpath); err != nil {
		return err
	}
	srcDir, srcName, ok := fs.lookupDir(oldpath)
	if !ok || srcDir == nil {
		return pathErr("rename", oldpath, os.ErrNotExist)
	}
	n, ok := srcDir.children[srcName]
	if !ok {
		return pathErr("rename", oldpath, os.ErrNotExist)
	}
	dstDir, dstName, ok := fs.lookupDir(newpath)
	if !ok || dstDir == nil {
		return pathErr("rename", newpath, os.ErrNotExist)
	}
	if _, err := fs.mutgate("rename", oldpath+" -> "+newpath); err != nil {
		return err
	}
	delete(srcDir.children, srcName)
	dstDir.children[dstName] = n
	if srcDir == dstDir {
		// A same-directory rename is one atomic namespace op: a crash
		// image applies both halves or neither.
		srcDir.nsPending = append(srcDir.nsPending, nsOp{del: []string{srcName}, add: map[string]*fnode{dstName: n}})
	} else {
		// Cross-directory rename atomicity is not modeled; the repo's
		// durable paths only rename within one directory.
		srcDir.nsPending = append(srcDir.nsPending, nsOp{del: []string{srcName}})
		dstDir.nsPending = append(dstDir.nsPending, nsOp{add: map[string]*fnode{dstName: n}})
	}
	now := fs.clock()
	srcDir.mtime, dstDir.mtime = now, now
	return nil
}

func (fs *FaultFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.rgate("remove", name); err != nil {
		return err
	}
	parent, base, ok := fs.lookupDir(name)
	if !ok || parent == nil {
		return pathErr("remove", name, os.ErrNotExist)
	}
	n, ok := parent.children[base]
	if !ok {
		return pathErr("remove", name, os.ErrNotExist)
	}
	if n.dir && len(n.children) > 0 {
		return pathErr("remove", name, syscall.ENOTEMPTY)
	}
	if _, err := fs.mutgate("remove", name); err != nil {
		return err
	}
	delete(parent.children, base)
	parent.nsPending = append(parent.nsPending, nsOp{del: []string{base}})
	parent.mtime = fs.clock()
	return nil
}

func (fs *FaultFS) Link(oldname, newname string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.rgate("link", oldname); err != nil {
		return err
	}
	n, ok := fs.lookup(oldname)
	if !ok {
		return pathErr("link", oldname, os.ErrNotExist)
	}
	if n.dir {
		return pathErr("link", oldname, syscall.EPERM)
	}
	parent, base, ok := fs.lookupDir(newname)
	if !ok || parent == nil {
		return pathErr("link", newname, os.ErrNotExist)
	}
	if _, exists := parent.children[base]; exists {
		return pathErr("link", newname, os.ErrExist)
	}
	if _, err := fs.mutgate("link", newname); err != nil {
		return err
	}
	parent.children[base] = n
	parent.nsPending = append(parent.nsPending, nsOp{add: map[string]*fnode{base: n}})
	parent.mtime = fs.clock()
	return nil
}

func (fs *FaultFS) Stat(name string) (os.FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.rgate("stat", name); err != nil {
		return nil, err
	}
	n, ok := fs.lookup(name)
	if !ok {
		return nil, pathErr("stat", name, os.ErrNotExist)
	}
	return n.info(filepath.Base(filepath.Clean(name))), nil
}

func (fs *FaultFS) ReadFile(name string) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.rgate("read", name); err != nil {
		return nil, err
	}
	n, ok := fs.lookup(name)
	if !ok {
		return nil, pathErr("read", name, os.ErrNotExist)
	}
	if n.dir {
		return nil, pathErr("read", name, syscall.EISDIR)
	}
	return append([]byte(nil), n.data...), nil
}

func (fs *FaultFS) ReadDir(name string) ([]os.DirEntry, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.rgate("readdir", name); err != nil {
		return nil, err
	}
	n, ok := fs.lookup(name)
	if !ok {
		return nil, pathErr("readdir", name, os.ErrNotExist)
	}
	if !n.dir {
		return nil, pathErr("readdir", name, syscall.ENOTDIR)
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]os.DirEntry, 0, len(names))
	for _, nm := range names {
		out = append(out, dirEntry{name: nm, node: n.children[nm]})
	}
	return out, nil
}

func (fs *FaultFS) Glob(pattern string) ([]string, error) {
	dir, base := filepath.Split(pattern)
	ents, err := fs.ReadDir(filepath.Clean(dir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []string
	for _, e := range ents {
		ok, err := filepath.Match(base, e.Name())
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, filepath.Join(filepath.Clean(dir), e.Name()))
		}
	}
	return out, nil
}

func (fs *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.rgate("mkdir", path); err != nil {
		return err
	}
	n := fs.root
	built := ""
	for _, part := range splitPath(path) {
		built = built + "/" + part
		c, ok := n.children[part]
		if ok {
			if !c.dir {
				return pathErr("mkdir", built, syscall.ENOTDIR)
			}
			n = c
			continue
		}
		if _, err := fs.mutgate("mkdir", built); err != nil {
			return err
		}
		c = fs.newNode(true)
		c.mode = perm | os.ModeDir
		n.children[part] = c
		n.nsPending = append(n.nsPending, nsOp{add: map[string]*fnode{part: c}})
		n.mtime = fs.clock()
		n = c
	}
	return nil
}

func (fs *FaultFS) SyncDir(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.rgate("syncdir", dir); err != nil {
		return err
	}
	n, ok := fs.lookup(dir)
	if !ok {
		return pathErr("syncdir", dir, os.ErrNotExist)
	}
	if !n.dir {
		return pathErr("syncdir", dir, syscall.ENOTDIR)
	}
	if _, err := fs.mutgate("syncdir", dir); err != nil {
		return err
	}
	n.durableCh = make(map[string]*fnode, len(n.children))
	for name, c := range n.children {
		n.durableCh[name] = c
	}
	n.nsPending = nil
	return nil
}

func (fs *FaultFS) SameFile(a, b os.FileInfo) bool {
	fa, aok := a.(fileInfo)
	fb, bok := b.(fileInfo)
	return aok && bok && fa.node == fb.node
}

// ---------------------------------------------------------------------------
// file handles

type faultFile struct {
	fs   *FaultFS
	node *fnode
	name string
	flag int
	off  int64
}

func (f *faultFile) Name() string { return f.name }

func (f *faultFile) writable() bool {
	return f.flag&(os.O_WRONLY|os.O_RDWR) != 0
}

func (f *faultFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.fs.rgate("read", f.name); err != nil {
		return 0, err
	}
	if f.flag&os.O_WRONLY != 0 {
		return 0, pathErr("read", f.name, syscall.EBADF)
	}
	if f.off >= int64(len(f.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[f.off:])
	f.off += int64(n)
	return n, nil
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.fs.rgate("read", f.name); err != nil {
		return 0, err
	}
	if f.flag&os.O_WRONLY != 0 {
		return 0, pathErr("read", f.name, syscall.EBADF)
	}
	if off >= int64(len(f.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// writeAt applies a (possibly partial) write to the volatile content and
// records it as an un-synced pending op; callers hold fs.mu.
func (f *faultFile) writeAt(p []byte, off int64) {
	end := off + int64(len(p))
	if int64(len(f.node.data)) < end {
		grown := make([]byte, end)
		copy(grown, f.node.data)
		f.node.data = grown
	}
	copy(f.node.data[off:], p)
	f.node.pending = append(f.node.pending, fileOp{off: off, data: append([]byte(nil), p...)})
	f.node.mtime = f.fs.clock()
}

func (f *faultFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.fs.rgate("write", f.name); err != nil {
		return 0, err
	}
	if !f.writable() {
		return 0, pathErr("write", f.name, syscall.EBADF)
	}
	if f.flag&os.O_APPEND != 0 {
		f.off = int64(len(f.node.data))
	}
	fault, err := f.fs.mutgate("write", f.name)
	if err != nil {
		if fault != nil && fault.Partial > 0 {
			n := fault.Partial
			if n > len(p) {
				n = len(p)
			}
			f.writeAt(p[:n], f.off)
			f.off += int64(n)
			return n, err
		}
		return 0, err
	}
	f.writeAt(p, f.off)
	f.off += int64(len(p))
	return len(p), nil
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.fs.rgate("write", f.name); err != nil {
		return 0, err
	}
	if !f.writable() {
		return 0, pathErr("write", f.name, syscall.EBADF)
	}
	fault, err := f.fs.mutgate("write", f.name)
	if err != nil {
		if fault != nil && fault.Partial > 0 {
			n := fault.Partial
			if n > len(p) {
				n = len(p)
			}
			f.writeAt(p[:n], off)
			return n, err
		}
		return 0, err
	}
	f.writeAt(p, off)
	return len(p), nil
}

func (f *faultFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.fs.rgate("sync", f.name); err != nil {
		return err
	}
	if _, err := f.fs.mutgate("sync", f.name); err != nil {
		return err
	}
	f.node.durable = append([]byte(nil), f.node.data...)
	f.node.pending = nil
	return nil
}

func (f *faultFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.fs.rgate("truncate", f.name); err != nil {
		return err
	}
	if !f.writable() {
		return pathErr("truncate", f.name, syscall.EBADF)
	}
	if _, err := f.fs.mutgate("truncate", f.name); err != nil {
		return err
	}
	if size < 0 {
		size = 0
	}
	if int64(len(f.node.data)) > size {
		f.node.data = f.node.data[:size]
	} else if int64(len(f.node.data)) < size {
		grown := make([]byte, size)
		copy(grown, f.node.data)
		f.node.data = grown
	}
	f.node.pending = append(f.node.pending, fileOp{truncate: true, size: size})
	f.node.mtime = f.fs.clock()
	return nil
}

func (f *faultFile) Stat() (os.FileInfo, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.fs.rgate("stat", f.name); err != nil {
		return nil, err
	}
	return f.node.info(filepath.Base(filepath.Clean(f.name))), nil
}

func (f *faultFile) Close() error { return nil }

// ---------------------------------------------------------------------------
// metadata

type fileInfo struct {
	name  string
	size  int64
	mode  os.FileMode
	mtime time.Time
	node  *fnode
}

func (fi fileInfo) Name() string       { return fi.name }
func (fi fileInfo) Size() int64        { return fi.size }
func (fi fileInfo) Mode() os.FileMode  { return fi.mode }
func (fi fileInfo) ModTime() time.Time { return fi.mtime }
func (fi fileInfo) IsDir() bool        { return fi.mode.IsDir() }
func (fi fileInfo) Sys() any           { return fi.node }

func (n *fnode) info(name string) os.FileInfo {
	return fileInfo{name: name, size: int64(len(n.data)), mode: n.mode, mtime: n.mtime, node: n}
}

type dirEntry struct {
	name string
	node *fnode
}

func (d dirEntry) Name() string               { return d.name }
func (d dirEntry) IsDir() bool                { return d.node.dir }
func (d dirEntry) Type() os.FileMode          { return d.node.mode.Type() }
func (d dirEntry) Info() (os.FileInfo, error) { return d.node.info(d.name), nil }

// ---------------------------------------------------------------------------
// crash materialization

// CrashImage materializes the strictly-durable disk state — exactly what
// was fsynced, nothing more: un-synced file writes are dropped entirely
// and un-synced namespace ops (creates, renames, removes) never happened.
// The result is a fresh, fault-free, fully-synced FaultFS to run recovery
// code against.
func (fs *FaultFS) CrashImage() *FaultFS {
	return fs.crashImage(nil)
}

// CrashImageTorn materializes one seeded ext4-like crash state: each
// directory retains some prefix (chosen by the seed) of its un-synced
// namespace ops in operation order, and each file some prefix of its
// un-synced writes, with the first unapplied write possibly torn at
// sector granularity. The same seed always yields the same image; the
// strict CrashImage is the prefix-zero special case.
func (fs *FaultFS) CrashImageTorn(seed int64) *FaultFS {
	return fs.crashImage(rand.New(rand.NewSource(seed)))
}

func (fs *FaultFS) crashImage(rng *rand.Rand) *FaultFS {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := NewFaultFS()
	out.clock = fs.clock
	out.sector = fs.sector
	fs.copyDir(fs.root, out, out.root, rng)
	return out
}

// copyDir materializes src's crash-surviving entries into dst (a dir node
// of the out filesystem); callers hold fs.mu. Iteration is sorted so the
// rng draw sequence — and therefore the whole image — is a deterministic
// function of the seed.
func (fs *FaultFS) copyDir(src *fnode, out *FaultFS, dst *fnode, rng *rand.Rand) {
	entries := make(map[string]*fnode, len(src.durableCh))
	for name, c := range src.durableCh {
		entries[name] = c
	}
	if rng != nil && len(src.nsPending) > 0 {
		keep := rng.Intn(len(src.nsPending) + 1)
		for _, op := range src.nsPending[:keep] {
			for _, name := range op.del {
				delete(entries, name)
			}
			for name, c := range op.add {
				entries[name] = c
			}
		}
	}
	names := make([]string, 0, len(entries))
	for name := range entries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := entries[name]
		if c.dir {
			nd := out.newNode(true)
			nd.mode = c.mode
			nd.mtime = c.mtime
			dst.children[name] = nd
			dst.durableCh[name] = nd
			fs.copyDir(c, out, nd, rng)
			continue
		}
		content := fs.crashContent(c, rng)
		nf := out.newNode(false)
		nf.mode = c.mode
		nf.mtime = c.mtime
		nf.data = content
		nf.durable = append([]byte(nil), content...)
		dst.children[name] = nf
		dst.durableCh[name] = nf
	}
}

// crashContent computes a file's post-crash bytes: the last-synced
// content, plus (torn mode only) a seeded prefix of the un-synced ops
// with the first unapplied write torn at sector granularity.
func (fs *FaultFS) crashContent(n *fnode, rng *rand.Rand) []byte {
	base := append([]byte(nil), n.durable...)
	if rng == nil || len(n.pending) == 0 {
		return base
	}
	keep := rng.Intn(len(n.pending) + 1)
	for _, op := range n.pending[:keep] {
		base = applyFileOp(base, op, op.data)
	}
	if keep < len(n.pending) {
		op := n.pending[keep]
		if !op.truncate && len(op.data) > 0 {
			// Tear the first unapplied write: persist a sector-aligned
			// prefix of it (possibly zero sectors).
			sectors := rng.Intn(len(op.data)/fs.sector + 1)
			if cut := sectors * fs.sector; cut > 0 {
				base = applyFileOp(base, op, op.data[:cut])
			}
		}
	}
	return base
}

// applyFileOp replays one pending content op (with data possibly cut
// short of op.data for a torn write) onto base.
func applyFileOp(base []byte, op fileOp, data []byte) []byte {
	if op.truncate {
		if int64(len(base)) > op.size {
			return base[:op.size]
		}
		grown := make([]byte, op.size)
		copy(grown, base)
		return grown
	}
	end := op.off + int64(len(data))
	if int64(len(base)) < end {
		grown := make([]byte, end)
		copy(grown, base)
		base = grown
	}
	copy(base[op.off:], data)
	return base
}
