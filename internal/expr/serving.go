package expr

import (
	"fmt"
	"os"
	"time"

	"cdbtune/internal/core"
	"cdbtune/internal/knobs"
	"cdbtune/internal/registry"
	"cdbtune/internal/server"
)

// ServingTelemetry exercises the multi-tenant serving layer end to end and
// reports its per-session telemetry: a stream of tuning requests runs
// through the session manager (fingerprint → registry match → warm-start
// or scratch training → guarded online tuning), with repeated workloads
// deliberately in the mix so the warm-start path fires and its
// episodes-saved accounting shows up next to the scratch baselines. A
// second table summarizes the service counters — throughput of the worker
// pool, queue-wait percentiles, warm-start hit rate, and the fine-tuning
// savings the model registry is buying (§5's "match and fine-tune the
// closest model" serving story).
func ServingTelemetry(b Budget) ([]Table, error) {
	// A compact knob subset keeps per-session training in budget; the
	// serving pipeline is what's under measurement here, not the policy.
	full := knobs.MySQL(knobs.EngineCDB)
	idx := make([]int, 8)
	for i := range idx {
		idx[i] = i
	}
	cat := full.Subset(idx)

	regDir, err := os.MkdirTemp("", "cdbtune-serving-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(regDir)
	reg, err := registry.Open(regDir, registry.WithLogf(func(string, ...any) {}))
	if err != nil {
		return nil, err
	}

	m, err := server.NewManager(server.Config{
		Registry:            reg,
		Workers:             2,
		OnlineSteps:         5,
		MinScratchEpisodes:  4,
		MaxScratchEpisodes:  b.Episodes / 4,
		MaxFineTuneEpisodes: 2,
		ChunkEpisodes:       2,
		MatchRadius:         0.25,
		Seed:                b.Seed,
		Catalog:             cat,
		TunerConfig:         func(c *knobs.Catalog) core.Config { return tunerConfig(b, c) },
		Logf:                func(string, ...any) {},
	})
	if err != nil {
		return nil, err
	}
	defer m.Close()

	// Six requests, three workload classes, in two waves: the first wave
	// trains each class from scratch and populates the registry; the
	// second repeats the classes, so every one of its sessions should
	// match a wave-1 model and take the warm-start path.
	waves := [][]server.JobRequest{
		{
			{Workload: "sysbench-rw", Instance: "CDB-A"},
			{Workload: "tpcc", Instance: "CDB-A"},
			{Workload: "sysbench-ro", Instance: "CDB-A"},
		},
		{
			{Workload: "sysbench-rw", Instance: "CDB-A"},
			{Workload: "tpcc", Instance: "CDB-A"},
			{Workload: "sysbench-ro", Instance: "CDB-A"},
		},
	}
	for _, wave := range waves {
		ids := make([]string, 0, len(wave))
		for _, r := range wave {
			st, err := m.Submit(r)
			if err != nil {
				return nil, err
			}
			ids = append(ids, st.ID)
		}
		for _, id := range ids {
			if err := waitDone(m, id); err != nil {
				return nil, err
			}
		}
	}

	sessions := Table{
		Title:  "Serving sessions (multi-tenant tuning service; warm = fine-tuned a registry match)",
		Header: []string{"session", "workload", "path", "match dist", "queue ms", "episodes", "saved", "improvement"},
	}
	for _, s := range m.Jobs() {
		dist := "-"
		if s.Path == server.PathWarm {
			dist = fmt.Sprintf("%.4f", s.MatchDistance)
		}
		sessions.Rows = append(sessions.Rows, []string{
			s.ID, s.Workload, s.Path, dist,
			fmt.Sprintf("%.0f", s.QueueWaitMs),
			fmt.Sprintf("%d", s.Episodes),
			fmt.Sprintf("%d", s.EpisodesSaved),
			fmtPct(s.Improvement),
		})
	}

	mt := m.Metrics()
	hitRate := 0.0
	if mt.WarmHits+mt.WarmMisses > 0 {
		hitRate = float64(mt.WarmHits) / float64(mt.WarmHits+mt.WarmMisses)
	}
	saved := 0.0
	if mt.EpisodesTrained+mt.EpisodesSaved > 0 {
		saved = float64(mt.EpisodesSaved) / float64(mt.EpisodesTrained+mt.EpisodesSaved)
	}
	summary := Table{
		Title:  "Serving summary",
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"sessions completed / failed", fmt.Sprintf("%d / %d", mt.Completed, mt.Failed)},
			{"queue wait p50 / p95 (ms)", fmt.Sprintf("%.0f / %.0f", mt.QueueWaitP50Ms, mt.QueueWaitP95Ms)},
			{"warm-start hit rate", fmt.Sprintf("%.0f%% (%d/%d)", hitRate*100, mt.WarmHits, mt.WarmHits+mt.WarmMisses)},
			{"episodes trained", fmt.Sprintf("%d", mt.EpisodesTrained)},
			{"episodes saved by fine-tuning", fmt.Sprintf("%d (%.0f%% of the scratch-equivalent budget)", mt.EpisodesSaved, saved*100)},
			{"registry entries / corrupt", fmt.Sprintf("%d / %d", mt.RegistryEntries, mt.RegistryCorrupt)},
		},
	}
	return []Table{sessions, summary}, nil
}

// waitDone polls a session until it reaches a terminal state, failing on
// anything but a clean completion.
func waitDone(m *server.Manager, id string) error {
	deadline := time.Now().Add(10 * time.Minute)
	for time.Now().Before(deadline) {
		st, ok := m.Job(id)
		if !ok {
			return fmt.Errorf("serving: job %s vanished", id)
		}
		switch st.State {
		case server.StateDone:
			return nil
		case server.StateFailed, server.StateCanceled:
			return fmt.Errorf("serving: job %s %s: %s", id, st.State, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("serving: job %s timed out", id)
}
