package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"

	"cdbtune/internal/core"
	"cdbtune/internal/env"
	"cdbtune/internal/fleet"
	"cdbtune/internal/registry"
	"cdbtune/internal/server"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// store is either registry flavour; Verify re-reads every entry file from
// disk.
type store interface {
	registry.Store
	Verify() (int, map[string]string)
}

// stack is one running serving stack and what the checks need from it.
type stack struct {
	base    string // http://host:port
	reg     store
	journal *fleet.Journal // nil off the fleet workload
	// leaseEpoch is the registry write lease's epoch (0 off the fleet).
	leaseEpoch func() int64
	stop       func() error
}

// build starts the workload's stack over dir: server.NewManager and
// server.NewServer on loopback, or one fleet.Start node. A non-nil tracer
// installs the database and filesystem decorators.
func (w workloadDef) build(dir string, seed int64, tr *tracer) (*stack, error) {
	cfg := w.serverConfig()
	opts := w.registryOpts()
	if tr != nil {
		cfg.MakeDB = tr.wrapMakeDB(cfg.MakeDB)
		opts = append(opts, registry.WithFS(tr.fs()))
	}

	if w.fleet {
		regDir := filepath.Join(dir, "registry")
		if err := w.preloadRegistry(regDir, seed, opts); err != nil {
			return nil, err
		}
		node, err := fleet.Start(fleet.Config{
			ID: "bench", Dir: dir, Addr: "127.0.0.1:0",
			Server: cfg, RegistryOpts: opts,
			Logf: func(string, ...any) {},
		})
		if err != nil {
			return nil, err
		}
		journal, err := fleet.OpenJournal(filepath.Join(dir, "jobs"))
		if err != nil {
			_ = node.Stop()
			return nil, err
		}
		return &stack{
			base: "http://" + node.Addr(), reg: node.Registry(), journal: journal,
			leaseEpoch: node.Registry().Lease().Epoch, stop: node.Stop,
		}, nil
	}

	reg, err := registry.Open(filepath.Join(dir, "registry"), opts...)
	if err != nil {
		return nil, err
	}
	cfg.Registry = reg
	m, err := server.NewManager(cfg)
	if err != nil {
		return nil, err
	}
	srv := server.NewServer(m)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, err
	}
	return &stack{
		base: "http://" + addr, reg: reg,
		leaseEpoch: func() int64 { return 0 }, stop: srv.Close,
	}, nil
}

// preloadRegistry stores w.preload synthetic entries before the node
// opens the directory: real default-configuration fingerprints of the
// grid's classes, each pushed by seeded noise until it is farther than
// 1.2 match radii from every live class, so lookups scan them and
// never match them. The blob is a freshly built model of the workload's
// own net shape.
func (w workloadDef) preloadRegistry(dir string, seed int64, opts []registry.Option) error {
	if w.preload == 0 {
		return nil
	}
	reg, err := registry.Open(dir, opts...)
	if err != nil {
		return err
	}
	cat := w.catalog()
	tn, err := core.New(w.tunerConfig(cat))
	if err != nil {
		return err
	}
	var blob bytes.Buffer
	if err := tn.Save(&blob); err != nil {
		return err
	}
	var live [][]float64
	for _, wl := range workload.All() {
		for _, inst := range simdb.Table1() {
			res, err := env.New(env.OpenEngine(w.engine, inst, 1), cat, wl).Measure()
			if err != nil {
				return fmt.Errorf("fingerprinting %s on %s: %w", wl.Name, inst.Name, err)
			}
			live = append(live, registry.Fingerprint(res.State, wl, inst.HW))
		}
	}
	far := 1.2 * w.serverConfig().MatchRadius
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for n := 0; n < w.preload; n++ {
		fp := farFingerprint(rng, live, far)
		_, err := reg.Put(registry.Meta{
			Workload: "synthetic", Instance: "none", Fingerprint: fp,
			Episodes: 1, ScratchEpisodes: 1,
		}, blob.Bytes())
		if err != nil {
			return err
		}
	}
	return nil
}

// farFingerprint perturbs one live fingerprint, with noise that widens on
// every rejection, until the result is farther than far from all of them.
func farFingerprint(rng *rand.Rand, live [][]float64, far float64) []float64 {
	base := live[rng.Intn(len(live))]
	fp := make([]float64, len(base))
	for sd := far; ; sd *= 1.25 {
		for i := range fp {
			// Reflected into [0,1], where every real component lives.
			v := math.Abs(base[i] + rng.NormFloat64()*sd)
			if v > 1 {
				v = 1 / v
			}
			fp[i] = v
		}
		ok := true
		for _, l := range live {
			if d, _ := registry.Distance(fp, l); d <= far {
				ok = false
				break
			}
		}
		if ok {
			return fp
		}
	}
}
