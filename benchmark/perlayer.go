package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"cdbtune/internal/fleet"
	"cdbtune/internal/knobs"
	"cdbtune/internal/metrics"
	"cdbtune/internal/registry"
	"cdbtune/internal/server"
	"cdbtune/internal/vfs"
)

// maxReplicaJobs bounds the stage replica; it also stops once it has used
// a third of the run's --seconds (but replays at least two jobs).
const maxReplicaJobs = 20

// probeIters is how often each direct probe (one call on one layer, in a
// scratch directory) is timed; the median is reported.
const probeIters = 40

// setPerLayer fills the traced pass's metrics: client timestamps, the
// decorators' counts over the timed interval, the stage replica, direct
// probes of single calls, and the process's resource use. A metric that
// does not apply to a workload (fleet.* off the fleet, core.load_ms where
// nothing warm-starts) reads 0.
func (r *result) setPerLayer(w workloadDef, o options, tr *tracer, st *stack, scratch string, outs []outcome, before, after procSample) error {
	var jobs []outcome // finished, checked, not duplicates
	var submit, queue, dup []float64
	for _, out := range outs {
		if check(w, out, outs) != "" {
			continue
		}
		if out.spec.DupOf > 0 {
			dup = append(dup, out.submitMs)
			continue
		}
		jobs = append(jobs, out)
		submit = append(submit, out.submitMs)
		queue = append(queue, out.status.QueueWaitMs)
	}
	n := float64(len(jobs))
	if n == 0 {
		return fmt.Errorf("traced pass of %s finished no job", w.name)
	}
	perJob := func(v float64) float64 { return v / n }

	// The decorators' view of the timed interval, before the replica adds
	// its own calls to the same counters.
	run, apply := tr.stat("simdb.run_workload"), tr.stat("simdb.apply_knobs")
	fsync, fwrite, fread, frename := tr.stat("vfs.sync"), tr.stat("vfs.write"), tr.stat("vfs.read"), tr.stat("vfs.rename")

	// ---- stage replica, over the most recent live jobs ----
	rp := newReplica(w, st.reg, tr)
	budget := time.Duration(o.seconds / 3 * float64(time.Second))
	var unattributed, share []float64
	var reps []replayed
	matched := 0
	replicaJobs := make(map[int]bool)
	for i, t0 := len(jobs)-1, time.Now(); i >= 0 && len(reps) < maxReplicaJobs; i-- {
		if len(reps) >= 2 && time.Since(t0) > budget {
			break
		}
		live := jobs[i]
		rep, err := rp.replay(live)
		if err != nil {
			return fmt.Errorf("stage replica of request %d: %w", live.idx, err)
		}
		reps = append(reps, rep)
		replicaJobs[live.idx] = true
		if rep.path == live.status.Path && rep.episodes == live.status.Episodes {
			matched++
		}
		unattributed = append(unattributed, live.totalMs-rep.totalMs)
		share = append(share, (live.totalMs-rep.totalMs)/live.totalMs)
	}
	// stage sums one span name over each replayed job and takes the median
	// over jobs; a job with no such span counts as 0.
	stage := func(name string) (count, total, self float64) {
		sums := tr.perJob(name)
		var c, t, s []float64
		for idx := range replicaJobs {
			js := sums[idx]
			c, t, s = append(c, js.n), append(t, js.total), append(s, js.self)
		}
		return median(c), median(t), median(s)
	}
	pick := func(f func(replayed) float64) float64 {
		v := make([]float64, len(reps))
		for i, rep := range reps {
			v[i] = f(rep)
		}
		return median(v)
	}

	var sm server.Metrics
	if err := getJSON(st.base+"/metrics.json", &sm); err != nil {
		return err
	}

	r.set("server.http_submit_ms", median(submit), "ms")
	r.set("server.queue_wait_ms", median(queue), "ms")
	r.set("server.unattributed_ms", median(unattributed), "ms")
	r.set("server.unattributed_share", median(share), "ratio")
	r.set("server.rejected", float64(sm.Rejected), "count")

	_, newMs, _ := stage("core.new")
	_, loadMs, _ := stage("core.load")
	_, saveMs, _ := stage("core.save")
	_, trainMs, trainSelf := stage("core.train")
	_, probeMs, _ := stage("core.probe")
	_, dynMs, _ := stage("core.dynamic_window")
	_, tuneMs, tuneSelf := stage("controller.tune")
	r.set("core.new_ms", newMs, "ms")
	r.set("core.load_ms", loadMs, "ms")
	r.set("core.save_ms", saveMs, "ms")
	r.set("core.model_bytes", pick(func(p replayed) float64 { return float64(p.modelLen) }), "B")
	r.set("core.train_ms", trainMs, "ms")
	r.set("core.train_self_ms", trainSelf, "ms")
	r.set("core.probe_ms", probeMs, "ms")
	r.set("core.dynamic_window_ms", dynMs, "ms")
	r.set("core.drifts", pick(func(p replayed) float64 { return float64(p.drifts) }), "count")
	r.set("core.retunes", pick(func(p replayed) float64 { return float64(p.retunes) }), "count")
	r.set("core.reverts", pick(func(p replayed) float64 { return float64(p.reverts) }), "count")
	r.set("controller.tune_ms", tuneMs, "ms")
	r.set("controller.tune_self_ms", tuneSelf, "ms")

	_, measureMs, _ := stage("env.measure")
	stepN, stepMs, _ := stage("env.step")
	actN, actMs, _ := stage("ddpg.act")
	r.set("env.measure_us", measureMs*1e3, "us")
	r.set("env.step_us", div(stepMs*1e3, stepN), "us")
	r.set("ddpg.act_us", div(actMs*1e3, actN), "us")
	r.set("ddpg.train_steps", pick(func(p replayed) float64 { return float64(p.steps) }), "count")
	r.set("ddpg.train_step_us", rp.trainStepUs(), "us")
	r.set("knobs.catalog_build_us", probe(func() { knobs.ForEngine(w.engine) }), "us")

	r.set("simdb.calls", perJob(float64(run.calls)), "count")
	r.set("simdb.run_workload_us", div(float64(run.ns)/1e3, float64(run.calls)), "us")
	r.set("simdb.apply_knobs_us", div(float64(apply.ns)/1e3, float64(apply.calls)), "us")
	r.set("simdb.busy_ms", perJob(float64(run.ns+apply.ns)/1e6), "ms")
	r.set("simdb.virtual_s", perJob(run.extra), "s")

	_, fpMs, _ := stage("registry.fingerprint")
	nearN, nearMs, _ := stage("registry.nearest")
	putN, putMs, _ := stage("registry.put")
	r.set("registry.fingerprint_us", fpMs*1e3, "us")
	r.set("registry.nearest_us", div(nearMs*1e3, nearN), "us")
	r.set("registry.nearest_calls", nearN, "count")
	r.set("registry.put_ms", div(putMs, putN), "ms")
	r.set("registry.warm_hit_share", div(float64(sm.WarmHits), float64(sm.WarmHits+sm.WarmMisses)), "ratio")
	r.set("registry.entries", float64(st.reg.Len()), "count")

	r.set("vfs.sync_calls", perJob(float64(fsync.calls)), "count")
	r.set("vfs.sync_ms", perJob(float64(fsync.ns)/1e6), "ms")
	r.set("vfs.write_bytes", perJob(float64(fwrite.bytes)), "B")
	r.set("vfs.rename_calls", perJob(float64(frename.calls)), "count")
	r.set("vfs.read_bytes", perJob(float64(fread.bytes)), "B")

	// Direct probes of the durable control plane, which only the fleet
	// workload runs.
	var durable durableProbes
	if w.fleet {
		var err error
		if durable, err = probeDurable(scratch); err != nil {
			return err
		}
	}
	r.set("registry.wal_append_us", durable.walAppendUs, "us")
	r.set("registry.lease_renew_us", durable.leaseRenewUs, "us")
	r.set("registry.lease_epoch", float64(st.leaseEpoch()), "count")
	r.set("fleet.dup_submit_ms", median(dup), "ms")
	r.set("fleet.journal_put_us", durable.journalPutUs, "us")
	r.set("fleet.journal_update_us", durable.journalUpdateUs, "us")

	r.set("proc.cpu_ms_per_job", perJob((after.cpuS-before.cpuS)*1e3), "ms")
	r.set("proc.alloc_kb_per_job", perJob(float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/1024), "kB")
	r.set("proc.mallocs_per_job", perJob(float64(after.mem.Mallocs-before.mem.Mallocs)), "count")
	r.set("proc.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC), "count")
	r.set("proc.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, "ms")
	r.set("proc.peak_rss_mb", r.e2e["peak_rss_mb"].Value, "MB")

	r.set("trace.jobs_per_s", r.e2e["jobs_per_s"].Value, "1/s")
	r.set("trace.submit_to_deploy_p50_ms", r.e2e["submit_to_deploy_p50_ms"].Value, "ms")
	r.set("replica.jobs", float64(len(reps)), "count")
	r.set("replica.match_share", float64(matched)/float64(len(reps)), "ratio")

	tr.mu.Lock()
	r.spans = tr.spans
	tr.mu.Unlock()
	return nil
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// probe times fn probeIters times and returns the median in microseconds.
func probe(fn func()) float64 {
	d := make([]float64, probeIters)
	for i := range d {
		t := time.Now()
		fn()
		d[i] = float64(time.Since(t).Nanoseconds()) / 1e3
	}
	return median(d)
}

// trainStepUs times Agent.TrainStepInfo on the last replayed job's agent:
// the workload's own net shape over the replay memory that job filled.
// 0 when the memory holds too few transitions for one update.
func (rp *replica) trainStepUs() float64 {
	agent := rp.last.Agent()
	if _, ok := agent.TrainStepInfo(); !ok {
		return 0
	}
	agent.Act(make([]float64, metrics.NumMetrics))
	return probe(func() { agent.TrainStepInfo() })
}

// durableProbes are single timed calls on the durable control plane, in a
// directory of their own on the production filesystem.
type durableProbes struct {
	walAppendUs, leaseRenewUs, journalPutUs, journalUpdateUs float64
}

func probeDurable(dir string) (durableProbes, error) {
	var p durableProbes
	if err := vfs.MkdirAllDurable(vfs.OS, dir, 0o755); err != nil {
		return p, err
	}
	log, err := registry.OpenChangeLog(filepath.Join(dir, "probe.wal"))
	if err != nil {
		return p, err
	}
	defer log.Close()
	p.walAppendUs = probe(func() {
		if _, aerr := log.Append(registry.Change{Op: registry.OpPut, ID: "m0000", Version: 1}); aerr != nil {
			err = aerr
		}
	})
	if err != nil {
		return p, err
	}

	lease := registry.NewLease(filepath.Join(dir, "probe.lease"), "bench", time.Minute)
	if ok, lerr := lease.TryAcquire(); lerr != nil || !ok {
		return p, fmt.Errorf("acquiring the probe lease: %v", lerr)
	}
	p.leaseRenewUs = probe(func() {
		if rerr := lease.Renew(); rerr != nil {
			err = rerr
		}
	})
	if rerr := lease.Release(); err == nil {
		err = rerr
	}
	if err != nil {
		return p, err
	}

	journal, err := fleet.OpenJournal(filepath.Join(dir, "probe-jobs"))
	if err != nil {
		return p, err
	}
	i := 0
	p.journalPutUs = probe(func() {
		if perr := journal.Put(fleet.Record{Key: fmt.Sprintf("p%04d", i), Node: "bench", State: fleet.StateAccepted}); perr != nil {
			err = perr
		}
		i++
	})
	i = 0
	p.journalUpdateUs = probe(func() {
		uerr := journal.Update(fmt.Sprintf("p%04d", i), func(rec fleet.Record, _ bool) (fleet.Record, bool) {
			rec.State = server.StateDone
			return rec, true
		})
		if uerr != nil {
			err = uerr
		}
		i++
	})
	return p, err
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
