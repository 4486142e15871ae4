package main

import (
	"os"
	"sync"
	"time"

	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/registry"
	"cdbtune/internal/simdb"
	"cdbtune/internal/vfs"
	"cdbtune/internal/workload"
)

// span is one timed interval at a layer boundary. Parent indexes the span
// that caused it (-1 for a root); spans of one job share Job.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Job     int    `json:"job"`
}

// opStat is the work a decorator saw at one boundary.
type opStat struct {
	calls int64
	ns    int64
	bytes int64
	extra float64 // boundary-specific sum (virtual seconds at the simulator)
}

// tracer holds the traced pass's spans and counts in memory; nothing is
// written before the run ends. begin, child and end accept a nil tracer,
// so the untraced pass runs the same client code with no span recorded and
// no decorator installed.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	ops   map[string]*opStat
	// open is the stack of open stage-replica spans, all of job. While it
	// is not empty, stages and decorator calls are recorded as children of
	// its top, which is what makes a stage's self time computable. The
	// replica is one goroutine and runs after the clients have stopped.
	open []int
	job  int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), ops: make(map[string]*opStat)}
}

// reset forgets what set-up recorded, so that counts cover the timed
// interval only.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.ops = nil, make(map[string]*opStat)
	t.mu.Unlock()
}

// spanRef closes a span opened by begin.
type spanRef struct {
	t       *tracer
	id, job int
}

func (t *tracer) beginChild(name string, job, parent int) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, StartNs: now, Parent: parent, Job: job})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return spanRef{t, id, job}
}

func (t *tracer) begin(name string, job int) spanRef { return t.beginChild(name, job, -1) }

func (s spanRef) child(name string) spanRef {
	if s.t == nil {
		return spanRef{}
	}
	return s.t.beginChild(name, s.job, s.id)
}

func (s spanRef) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.t0).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans[s.id].EndNs = now
	s.t.mu.Unlock()
}

// stage opens a span of the job being replayed under the innermost open
// one and returns the func that closes it.
func (t *tracer) stage(name string) func() {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, StartNs: now, Parent: parent, Job: t.job})
	t.open = append(t.open, id)
	t.mu.Unlock()
	return func() {
		now := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans[id].EndNs = now
		t.open = t.open[:len(t.open)-1]
		t.mu.Unlock()
	}
}

// op records one decorator call: always into the counts, and as a child
// span of the innermost open replica stage.
func (t *tracer) op(name string, start time.Time, bytes int64, extra float64) {
	end := time.Now()
	t.mu.Lock()
	st := t.ops[name]
	if st == nil {
		st = &opStat{}
		t.ops[name] = st
	}
	st.calls++
	st.ns += end.Sub(start).Nanoseconds()
	st.bytes += bytes
	st.extra += extra
	if n := len(t.open); n > 0 {
		parent := t.open[n-1]
		t.spans = append(t.spans, span{
			Name: name, StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
			Parent: parent, Job: t.job,
		})
	}
	t.mu.Unlock()
}

func (t *tracer) stat(name string) opStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.ops[name]; st != nil {
		return *st
	}
	return opStat{}
}

// jobSums is, for one span name, what each job spent in spans of that
// name: the number of spans, their total duration, and their self time
// (duration minus the time their child spans cover), in milliseconds.
type jobSums struct {
	n           float64
	total, self float64
}

func (t *tracer) perJob(name string) map[int]jobSums {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := make(map[int]jobSums)
	for i, s := range t.spans {
		if s.Name != name || s.EndNs == 0 {
			continue
		}
		d := s.EndNs - s.StartNs
		js := out[s.Job]
		js.n++
		js.total += float64(d) / 1e6
		js.self += float64(d-child[i]) / 1e6
		out[s.Job] = js
	}
	return out
}

// ---- env.Database decorator ----

// tracedDB times every simulator call, of either engine family, under the
// layer name simdb (the LSM engine is internal/simdb/lsm). It forwards env.Staller: without
// that the LSM engine's write stalls would stop reaching the environment
// clock and the traced run would tune a different database.
type tracedDB struct {
	inner env.Database
	t     *tracer
}

func (t *tracer) wrapMakeDB(mk func(simdb.Instance, int64) env.Database) func(simdb.Instance, int64) env.Database {
	return func(inst simdb.Instance, seed int64) env.Database {
		return &tracedDB{inner: mk(inst, seed), t: t}
	}
}

func (d *tracedDB) ApplyKnobs(cat *knobs.Catalog, x []float64) (bool, error) {
	start := time.Now()
	r, err := d.inner.ApplyKnobs(cat, x)
	d.t.op("simdb.apply_knobs", start, 0, 0)
	return r, err
}

func (d *tracedDB) RunWorkload(w workload.Workload, durationSec float64) (simdb.Result, error) {
	start := time.Now()
	res, err := d.inner.RunWorkload(w, durationSec)
	d.t.op("simdb.run_workload", start, 0, durationSec)
	return res, err
}

func (d *tracedDB) ResetDefaults()                            { d.inner.ResetDefaults() }
func (d *tracedDB) CurrentKnobs(cat *knobs.Catalog) []float64 { return d.inner.CurrentKnobs(cat) }
func (d *tracedDB) Instance() simdb.Instance                  { return d.inner.Instance() }
func (d *tracedDB) KnobValue(name string) (float64, bool)     { return d.inner.KnobValue(name) }
func (d *tracedDB) Runs() int                                 { return d.inner.Runs() }

func (d *tracedDB) TakeStallSeconds() float64 {
	if s, ok := d.inner.(env.Staller); ok {
		return s.TakeStallSeconds()
	}
	return 0
}

// ---- registry.Store decorator ----

// tracedStore makes a stage of each of the replica's registry calls, so
// that the filesystem calls beneath nest under it. The live stack
// takes no such decorator: a fleet node opens its own registry, so the
// replica, which calls the live stack's registry directly, is the one
// place that sees these calls on every workload.
type tracedStore struct {
	registry.Store
	t *tracer
}

func (t *tracer) wrapStore(s registry.Store) registry.Store { return &tracedStore{Store: s, t: t} }

func (s *tracedStore) Put(meta registry.Meta, model []byte) (registry.Meta, error) {
	defer s.t.stage("registry.put")()
	return s.Store.Put(meta, model)
}

func (s *tracedStore) Nearest(fp []float64) (registry.Match, bool) {
	defer s.t.stage("registry.nearest")()
	return s.Store.Nearest(fp)
}

func (s *tracedStore) NearestWithin(fp []float64, radius float64) (registry.Match, bool) {
	defer s.t.stage("registry.nearest")()
	return s.Store.NearestWithin(fp, radius)
}

// ---- vfs.FS decorator ----

// tracedFS counts and times the durable-path filesystem calls under the
// registry (and, on the direct WAL/lease/journal probes, under those).
type tracedFS struct {
	vfs.FS
	t *tracer
}

func (t *tracer) fs() vfs.FS { return &tracedFS{FS: vfs.OS, t: t} }

func (f *tracedFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, t: f.t}, nil
}

func (f *tracedFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, t: f.t}, nil
}

func (f *tracedFS) Rename(oldpath, newpath string) error {
	start := time.Now()
	err := f.FS.Rename(oldpath, newpath)
	f.t.op("vfs.rename", start, 0, 0)
	return err
}

func (f *tracedFS) ReadFile(name string) ([]byte, error) {
	start := time.Now()
	data, err := f.FS.ReadFile(name)
	f.t.op("vfs.read", start, int64(len(data)), 0)
	return data, err
}

func (f *tracedFS) SyncDir(dir string) error {
	start := time.Now()
	err := f.FS.SyncDir(dir)
	f.t.op("vfs.sync", start, 0, 0)
	return err
}

type tracedFile struct {
	vfs.File
	t *tracer
}

func (f *tracedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.t.op("vfs.write", start, int64(n), 0)
	return n, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.t.op("vfs.write", start, int64(n), 0)
	return n, err
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.File.ReadAt(p, off)
	f.t.op("vfs.read", start, int64(n), 0)
	return n, err
}

func (f *tracedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.t.op("vfs.sync", start, 0, 0)
	return err
}
