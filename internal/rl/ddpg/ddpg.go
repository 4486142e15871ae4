package ddpg

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"cdbtune/internal/mat"
	"cdbtune/internal/nn"
	"cdbtune/internal/rl"
)

// Config selects the agent's architecture and hyperparameters. The zero
// value is not usable; call DefaultConfig and adjust.
type Config struct {
	StateDim  int // 63 internal metrics
	ActionDim int // number of tunable knobs

	// ActorHidden and CriticHidden list hidden-layer widths. The defaults
	// are Table 5 / Table 6's best row: actor 128-128-128-64, critic
	// 256-256-256-64 with a parallel 128+128 first stage.
	ActorHidden  []int
	CriticHidden []int

	ActorLR  float64 // paper Table 4: α = 0.001
	CriticLR float64
	// Gamma is the discount factor. The paper sets 0.99; the default here
	// is 0.2 because the Eq. 6 reward pays a recovery step in proportion
	// to the size of the dip it recovers from — with a long horizon the
	// bootstrapped value of deliberately bad configurations exceeds that
	// of staying tuned, and the policy oscillates. Knob tuning is nearly
	// a contextual bandit (the action fully determines the next
	// performance), so a short horizon loses nothing.
	Gamma float64
	Tau   float64 // soft target update rate

	BatchSize      int
	MemoryCapacity int
	Prioritized    bool // prioritized experience replay (§5.1)

	NoiseSigma float64 // initial exploration noise scale
	// ExploreDims, when positive, perturbs only that many randomly chosen
	// action dimensions per step instead of all of them. Isotropic noise
	// over hundreds of knobs displaces the configuration so far that the
	// best sample quality *drops* with dimensionality; sparse
	// coordinate-subset exploration keeps per-knob moves large while
	// bounding the joint displacement. 0 perturbs every dimension.
	ExploreDims int
	Dropout     float64 // Table 5: 0.3

	// MinMemory is the number of transitions required before learning
	// starts.
	MinMemory int

	// WeightDecay is the critic optimizer's L2 coefficient.
	WeightDecay float64

	// MaxGradNorm clips both the actor's and the critic's global L2
	// gradient norm per update (see nn.Network.ClipScale); the pre-clip
	// norms are reported in StepInfo for learner-health supervision.
	// Values ≤ 0 disable clipping but the norms are still measured.
	MaxGradNorm float64

	// PolicyDelay applies the actor (and actor-target) update only every
	// PolicyDelay critic updates (Fujimoto et al. 2018), damping policy
	// oscillation on top of a still-converging critic.
	PolicyDelay int

	// ActionBias, when non-nil (length ActionDim), warm-starts the
	// untrained policy at the given normalized action: the output layer's
	// bias is set to logit(ActionBias) so µ(s) ≈ ActionBias before
	// training. For knob tuning this is the default configuration —
	// without it the fresh policy sets every knob to the sigmoid midpoint,
	// which for hundreds of minor knobs is strictly worse than their
	// defaults.
	ActionBias []float64

	// BCWeight adds a self-imitation term to the actor update: the actor
	// is additionally pulled toward the best-rewarded action the
	// exploration has discovered (set via SetBCTarget). In very high
	// dimensional knob spaces the deterministic policy gradient alone is
	// too diluted to move 266 outputs with a few thousand samples; the
	// paper's try-and-error exploration *does* find strong configurations
	// (its Figure 5 outliers), and this term distills them into the
	// policy, with the policy gradient refining around them. 0 disables.
	BCWeight float64

	Seed int64
}

// DefaultConfig returns the paper's hyperparameters for the given state
// and action dimensionality.
func DefaultConfig(stateDim, actionDim int) Config {
	return Config{
		StateDim:       stateDim,
		ActionDim:      actionDim,
		ActorHidden:    []int{128, 128, 128, 64},
		CriticHidden:   []int{256, 256, 256, 64},
		ActorLR:        1e-3,
		CriticLR:       1e-3,
		Gamma:          0.2,
		Tau:            0.01,
		BatchSize:      64,
		MemoryCapacity: 100000,
		Prioritized:    true,
		NoiseSigma:     0.2,
		ExploreDims:    32,
		Dropout:        0.3,
		MinMemory:      64,
		WeightDecay:    1e-4,
		MaxGradNorm:    5,
		PolicyDelay:    2,
		BCWeight:       2,
		Seed:           1,
	}
}

// Agent is a DDPG learner.
type Agent struct {
	cfg Config
	rng *rand.Rand

	// pending marks the Table 4 random init as not yet run: New builds the
	// networks without weights, and ensureInit fills them at first use
	// unless SetWeights (or Load) supplies them first.
	pending bool
	// clean is the snapshot whose network tensors the live weights equal,
	// nil once anything may have written them since the last Snapshot or
	// SetWeights: Snapshot shares its tensors instead of copying them.
	clean *WeightSnapshot

	actor       *nn.Network
	actorTarget *nn.Network
	critic      *critic
	critTarget  *critic

	actorOpt  *nn.Adam
	criticOpt *nn.Adam

	Memory rl.Memory
	Noise  rl.Noise

	bcTarget []float64

	trainSteps     int
	skippedBatches int

	// TrainStepInfo scratch, recycled across updates so a steady-state
	// gradient step allocates almost nothing (see BENCH_hotpath.json).
	states, actions, next *mat.Matrix
	target, grad, ones    *mat.Matrix
	smoothEps             []float64
	tdErrors              []float64
	targetDone            chan struct{}
}

// New builds a DDPG agent from cfg: the architecture, with its random
// init deferred to first use (see the package doc, "Copy-on-write learner
// state").
func New(cfg Config) *Agent {
	if cfg.StateDim <= 0 || cfg.ActionDim <= 0 {
		panic("ddpg: StateDim and ActionDim must be positive")
	}
	if cfg.ActionBias != nil && len(cfg.ActionBias) != cfg.ActionDim {
		panic(fmt.Sprintf("ddpg: ActionBias length %d != ActionDim %d", len(cfg.ActionBias), cfg.ActionDim))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	a := &Agent{cfg: cfg, rng: rng, pending: true}

	a.actor = buildActor(cfg, rng)
	a.actorTarget = buildActor(cfg, rng)
	a.critic = newCritic(cfg, rng)
	a.critTarget = newCritic(cfg, rng)

	a.actorOpt = nn.NewAdam(a.actor, cfg.ActorLR)
	a.criticOpt = nn.NewAdam(a.critic.net(), cfg.CriticLR)
	a.criticOpt.WeightDecay = cfg.WeightDecay

	if cfg.Prioritized {
		a.Memory = rl.NewPrioritizedMemory(cfg.MemoryCapacity)
	} else {
		a.Memory = rl.NewUniformMemory(cfg.MemoryCapacity)
	}
	a.Noise = rl.NewOUNoise(cfg.NoiseSigma)
	a.targetDone = make(chan struct{})
	return a
}

// ensureInit runs the deferred Table 4 init if it is still pending: θ^µ
// from Normal(0, 0.01), ω (critic weights) from Uniform(−0.1, 0.1), and
// the targets as copies. Every method that reads the weights or the rng
// calls it first.
func (a *Agent) ensureInit() {
	if !a.pending {
		return
	}
	a.pending = false
	a.actor.InitNormal(a.rng, 0.01)
	if a.cfg.ActionBias != nil {
		// The output layer is the penultimate network layer (Sigmoid last).
		out := a.actor.Layers[len(a.actor.Layers)-2].(*nn.Dense)
		for j, x := range a.cfg.ActionBias {
			out.B.Value.Data[j] = logit(x)
		}
	}
	a.actor.CopyTo(a.actorTarget)
	a.critic.initUniform(a.rng, 0.1)
	a.critic.copyTo(a.critTarget)
}

// skipInit settles a pending init whose values are not needed because the
// weights arrive whole: it takes, and discards, exactly the draws
// ensureInit would have taken, so the rng ends where an initialized
// agent's would. Each draw is made rather than counted: NormFloat64
// consumes a data-dependent number of source values.
func (a *Agent) skipInit() {
	if !a.pending {
		return
	}
	a.pending = false
	for range a.actor.InitDraws() {
		a.rng.NormFloat64()
	}
	for range a.critic.net().InitDraws() {
		a.rng.Float64()
	}
}

// own is the agent's one write point, run before an update touches any
// weight or BatchNorm statistic: adopted tensors are copied out, and the
// weights no longer equal the last snapshot.
func (a *Agent) own() {
	for _, n := range a.networks() {
		n.Own()
	}
	a.clean = nil
}

// dense is nn.NewDense without storage: an agent's weights come from its
// deferred init or from an adopted snapshot, so zeroed buffers allocated
// here would only be thrown away.
func dense(in, out int) *nn.Dense {
	return &nn.Dense{
		In: in, Out: out,
		W: &nn.Param{Name: "W", Value: &mat.Matrix{Rows: in, Cols: out}},
		B: &nn.Param{Name: "b", Value: &mat.Matrix{Rows: 1, Cols: out}},
	}
}

// buildActor assembles the Table 5 actor: Dense→LeakyReLU(0.2)→BatchNorm
// for the first stage, Dense→Tanh→Dropout for intermediate stages, a
// BatchNorm'd penultimate stage, and a Sigmoid output squashing normalized
// knob values into (0, 1).
func buildActor(cfg Config, rng *rand.Rand) *nn.Network {
	var layers []nn.Layer
	in := cfg.StateDim
	for i, h := range cfg.ActorHidden {
		layers = append(layers, dense(in, h))
		switch i {
		case 0:
			layers = append(layers, nn.NewLeakyReLU(0.2), nn.NewBatchNorm(h))
		case len(cfg.ActorHidden) - 1:
			layers = append(layers, nn.NewTanh(), nn.NewBatchNorm(h))
		default:
			layers = append(layers, nn.NewTanh(), nn.NewDropout(cfg.Dropout, rng))
		}
		in = h
	}
	layers = append(layers, dense(in, cfg.ActionDim), nn.NewSigmoid())
	return nn.NewNetwork(layers...)
}

// Config returns the agent's configuration.
func (a *Agent) Config() Config { return a.cfg }

// TrainSteps reports how many gradient updates have been applied.
func (a *Agent) TrainSteps() int { return a.trainSteps }

// Act returns the deterministic policy action µ(s) for a single state. It
// uses the cache-free nn.Network.Infer path, so the input needs no
// defensive copy and an interleaved gradient update's backward state is
// never disturbed.
func (a *Agent) Act(state []float64) []float64 {
	a.ensureInit()
	x := mat.FromSlice(1, a.cfg.StateDim, state)
	out := a.actor.Infer(x)
	return append([]float64(nil), out.Data...)
}

// ActNoisy returns µ(s) perturbed by exploration noise drawn from src —
// the agent's own Noise, or a fork of it that a training run holds so its
// temporal state is not shared with other users of the agent. Out-of-range
// values are reflected back into [0, 1] rather than clamped: clamping
// piles a large fraction of exploration exactly onto the boundary values,
// which for knobs like the buffer pool is the pathological corner of the
// configuration space. It consumes the agent's rng, so it falls under the
// same caller-held lock as TrainStep.
func (a *Agent) ActNoisy(state []float64, src rl.Noise) []float64 {
	act := a.Act(state)
	noise := src.Sample(a.rng, len(act))
	k := a.cfg.ExploreDims
	if k <= 0 || k >= len(act) {
		for i := range act {
			act[i] = reflect01(act[i] + noise[i])
		}
		return act
	}
	for _, i := range a.rng.Perm(len(act))[:k] {
		act[i] = reflect01(act[i] + noise[i])
	}
	return act
}

// logit is the inverse sigmoid, clamped so extreme defaults stay inside
// the trainable region.
func logit(x float64) float64 {
	if x < 0.02 {
		x = 0.02
	}
	if x > 0.98 {
		x = 0.98
	}
	return math.Log(x / (1 - x))
}

// reflect01 folds x into [0, 1] by reflection at the boundaries.
func reflect01(x float64) float64 {
	for x < 0 || x > 1 {
		if x < 0 {
			x = -x
		}
		if x > 1 {
			x = 2 - x
		}
	}
	return x
}

// Observe stores a transition in the memory pool.
func (a *Agent) Observe(t rl.Transition) { a.Memory.Add(t) }

// SetBCTarget records the best-known action for the self-imitation term
// (see Config.BCWeight). Pass nil to clear it.
func (a *Agent) SetBCTarget(action []float64) {
	if action == nil {
		a.bcTarget = nil
		return
	}
	a.bcTarget = append(a.bcTarget[:0], action...)
}

// BCTarget returns the current self-imitation target, or nil.
func (a *Agent) BCTarget() []float64 { return a.bcTarget }

// StepInfo reports the losses and health signals of one gradient update,
// for training telemetry and learner-health supervision.
type StepInfo struct {
	// CriticLoss is the importance-weighted squared TD error of the batch.
	CriticLoss float64
	// ActorLoss is the actor objective −mean Q(s, µ(s)) over the batch;
	// only meaningful when ActorUpdated is true (PolicyDelay skips actor
	// updates on most critic steps).
	ActorLoss    float64
	ActorUpdated bool

	// CriticGradNorm and ActorGradNorm are the pre-clip global L2 gradient
	// norms of the update (ActorGradNorm only when ActorUpdated). A norm
	// orders of magnitude above Config.MaxGradNorm means the optimizer is
	// flying blind — every step is clipped down from a direction dominated
	// by a few outlier samples.
	CriticGradNorm float64
	ActorGradNorm  float64

	// MeanAbsQ is the critic's mean |Q(s, a)| over the replayed batch.
	// Stored rewards are bounded, so the achievable |return| is too;
	// MeanAbsQ growing past that bound is the TD3-style critic
	// overestimation spiral, the dominant DDPG failure mode.
	MeanAbsQ float64

	// MaxWeight is the largest parameter magnitude across the online actor
	// and critic after the update; NaN when any weight went non-finite.
	MaxWeight float64

	// ActorSaturation is the fraction of µ(s) outputs in the batch within
	// 0.02 of a [0,1] boundary (only measured when ActorUpdated). A fully
	// saturated policy has collapsed into an action-space corner and its
	// sigmoid gradients have vanished — it cannot learn its way back out.
	ActorSaturation float64

	// SkippedNonFinite marks a batch whose loss or gradients were not
	// finite: the update was discarded before touching any weight, and the
	// agent's skipped-batch counter advanced. All other fields except
	// CriticLoss are zero for a skipped batch.
	SkippedNonFinite bool
}

// TrainStep performs one critic and one actor update from a replayed
// batch, then soft-updates the target networks (Algorithm 1). It returns
// the critic loss, or ok=false if the memory pool is still too small.
func (a *Agent) TrainStep() (criticLoss float64, ok bool) {
	info, ok := a.TrainStepInfo()
	return info.CriticLoss, ok
}

// TrainStepInfo is TrainStep returning the full per-update losses.
func (a *Agent) TrainStepInfo() (StepInfo, bool) {
	a.ensureInit()
	if a.Memory.Len() < a.cfg.MinMemory || a.Memory.Len() < a.cfg.BatchSize {
		return StepInfo{}, false
	}
	// The one write point: everything below may write the weights (the
	// optimizer sweeps) or BatchNorm statistics (the actor's train-mode
	// forward), so adopted tensors are copied out here, before any pass
	// runs — a batch then skipped as non-finite counts as a write too.
	a.own()
	n := a.cfg.BatchSize
	batch, indices, weights := a.Memory.Sample(a.rng, n)

	a.states = mat.Reuse(a.states, n, a.cfg.StateDim)
	a.actions = mat.Reuse(a.actions, n, a.cfg.ActionDim)
	a.next = mat.Reuse(a.next, n, a.cfg.StateDim)
	states, actions, next := a.states, a.actions, a.next
	for i, t := range batch {
		copy(states.Row(i), t.State)
		copy(actions.Row(i), t.Action)
		copy(next.Row(i), t.NextState)
	}

	// The target-action smoothing noise is pre-drawn here so the agent's
	// rng consumption order (Sample → smoothing → dropout masks) is the
	// same whether or not the target pass below overlaps the online one.
	a.smoothEps = mat.ReuseVec(a.smoothEps, n*a.cfg.ActionDim)
	for i := range a.smoothEps {
		eps := 0.05 * a.rng.NormFloat64()
		if eps > 0.1 {
			eps = 0.1
		}
		if eps < -0.1 {
			eps = -0.1
		}
		a.smoothEps[i] = eps
	}

	// Step 2-4 of Algorithm 1: y_i = r + γ·Q'(s', µ'(s')). The target
	// action is smoothed with small clipped noise (Fujimoto et al. 2018):
	// it regularizes the bootstrapped value against the critic's sharp
	// extrapolation errors, which otherwise drag the actor into
	// action-space corners.
	//
	// The whole target-side computation runs in a goroutine overlapping
	// the online critic's train-mode forward below: the two touch
	// disjoint networks and scratch buffers, the target side draws no
	// randomness (Infer skips dropout; the smoothing noise is pre-drawn),
	// and the channel join orders every write before the first read — so
	// the overlap is bit-for-bit identical to the sequential schedule.
	a.target = mat.Reuse(a.target, n, 1)
	target := a.target
	go func() {
		nextActions := a.actorTarget.Infer(next)
		for i := range nextActions.Data {
			nextActions.Data[i] = mat.Clamp(nextActions.Data[i]+a.smoothEps[i], 0, 1)
		}
		nextQ := a.critTarget.forward(next, nextActions, false)
		for i, t := range batch {
			y := t.Reward
			if !t.Done {
				y += a.cfg.Gamma * nextQ.Data[i]
			}
			target.Data[i] = y
		}
		a.targetDone <- struct{}{}
	}()

	// Step 5-6: critic regression toward y with importance weights.
	a.critic.net().ZeroGrad()
	q := a.critic.forward(states, actions, true)
	<-a.targetDone

	a.grad = mat.Reuse(a.grad, n, 1)
	grad := a.grad
	a.tdErrors = mat.ReuseVec(a.tdErrors, n)
	tdErrors := a.tdErrors
	var loss, absQ float64
	for i := 0; i < n; i++ {
		d := q.Data[i] - target.Data[i]
		tdErrors[i] = d
		w := weights[i]
		loss += w * d * d
		grad.Data[i] = 2 * w * d / float64(n)
		absQ += math.Abs(q.Data[i])
	}
	loss /= float64(n)
	absQ /= float64(n)
	if !finite(loss) {
		// A NaN/Inf loss means the batch carried a non-finite sample (or
		// the critic's weights are already ruined): applying it would
		// poison every parameter in one optimizer step. Discard the update
		// before any backward pass runs — in particular before the actor's
		// train-mode forward below would fold the poisoned states into
		// BatchNorm running statistics.
		a.skippedBatches++
		return StepInfo{CriticLoss: loss, SkippedNonFinite: true}, true
	}
	a.critic.net().BackwardParams(grad)
	criticNorm, scale := a.critic.net().ClipScale(a.cfg.MaxGradNorm)
	if !finite(criticNorm) {
		a.skippedBatches++
		a.critic.net().ZeroGrad()
		return StepInfo{CriticLoss: loss, SkippedNonFinite: true}, true
	}
	// One pass over the critic: clip, Adam, soft target update
	// θ' ← τθ + (1−τ)θ', and the max |weight| StepInfo reports.
	maxWeight := a.criticOpt.Sweep(scale, a.critTarget.net(), a.cfg.Tau)
	a.Memory.UpdatePriorities(indices, tdErrors)

	a.trainSteps++
	delay := a.cfg.PolicyDelay
	if delay < 1 {
		delay = 1
	}
	if a.trainSteps%delay != 0 {
		// The actor was not swept this step, so its half of MaxWeight is a scan.
		return StepInfo{
			CriticLoss:     loss,
			CriticGradNorm: criticNorm,
			MeanAbsQ:       absQ,
			MaxWeight:      maxOrNaN(maxWeight, a.actor.MaxAbsWeight()),
		}, true
	}

	// Step 7: actor ascends ∇_a Q(s, µ(s)) via the chain rule. The first
	// (train-mode) pass only refreshes BatchNorm running statistics; the
	// gradient pass runs in evaluation mode so the update applies to the
	// exact function that Act deploys (batch-vs-running-stats mismatch
	// otherwise biases the learned policy). Neither pass mutates states,
	// so both share the batch buffer.
	a.actor.Forward(states, true)
	a.actor.ZeroGrad()
	mu := a.actor.Forward(states, false)
	qPi := a.critic.forward(states, mu, false)
	var actorLoss, saturated float64
	for i := 0; i < n; i++ {
		actorLoss -= qPi.Data[i]
		for _, v := range mu.Row(i) {
			if v < 0.02 || v > 0.98 {
				saturated++
			}
		}
	}
	actorLoss /= float64(n)
	saturated /= float64(n * a.cfg.ActionDim)
	a.ones = mat.Reuse(a.ones, n, 1)
	ones := a.ones
	ones.Fill(-1.0 / float64(n)) // minimize −Q
	// actionGrad leaves the critic's parameter gradients untouched (they
	// are already zero after its optimizer step), so nothing needs
	// discarding afterwards.
	dAction := a.critic.actionGrad(ones)
	if a.cfg.BCWeight > 0 && a.bcTarget != nil {
		// Self-imitation: add the gradient of
		// BCWeight·‖µ(s) − a_best‖²/n to the action gradient.
		w := 2 * a.cfg.BCWeight / float64(n*len(a.bcTarget))
		for i := 0; i < n; i++ {
			row := mu.Row(i)
			drow := dAction.Row(i)
			for j := range drow {
				drow[j] += w * (row[j] - a.bcTarget[j])
			}
		}
	}
	a.actor.BackwardParams(dAction)
	actorNorm, scale := a.actor.ClipScale(a.cfg.MaxGradNorm)
	if !finite(actorLoss) || !finite(actorNorm) {
		// The critic half of the update was finite and has been applied;
		// only the actor's half is poisoned (e.g. a critic weight crossed
		// into overflow during this pass). Discard the actor update alone.
		a.skippedBatches++
		a.actor.ZeroGrad()
		return StepInfo{
			CriticLoss:       loss,
			CriticGradNorm:   criticNorm,
			MeanAbsQ:         absQ,
			SkippedNonFinite: true,
		}, true
	}
	maxWeight = maxOrNaN(maxWeight, a.actorOpt.Sweep(scale, a.actorTarget, a.cfg.Tau))
	return StepInfo{
		CriticLoss:      loss,
		ActorLoss:       actorLoss,
		ActorUpdated:    true,
		CriticGradNorm:  criticNorm,
		ActorGradNorm:   actorNorm,
		MeanAbsQ:        absQ,
		MaxWeight:       maxWeight,
		ActorSaturation: saturated,
	}, true
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// maxOrNaN is the larger of two max-|weight| figures, NaN if either is:
// StepInfo.MaxWeight must go NaN as soon as any online weight does.
func maxOrNaN(a, b float64) float64 {
	if math.IsNaN(a) || b <= a {
		return a
	}
	return b // larger, or NaN
}

// SkippedBatches reports how many replayed batches were discarded because
// their loss or gradients were non-finite.
func (a *Agent) SkippedBatches() int { return a.skippedBatches }

// QValue returns the critic's score for a single (state, action) pair,
// used by diagnostics and tests.
func (a *Agent) QValue(state, action []float64) float64 {
	a.ensureInit()
	s := mat.FromSlice(1, a.cfg.StateDim, append([]float64(nil), state...))
	act := mat.FromSlice(1, a.cfg.ActionDim, append([]float64(nil), action...))
	return a.critic.forward(s, act, false).Data[0]
}

// Save serializes the policy — actor, critic and the remembered best
// configuration (the self-imitation target that also seeds online
// recommendations) — as one nn tensor list, in that order. The targets
// are training state: Load starts them as the online networks, as
// Algorithm 1's init does, and a checkpoint saves a Snapshot instead.
func (a *Agent) Save(w io.Writer) error {
	a.ensureInit()
	return writeModel(w, append(a.actor.Tensors(), a.critic.net().Tensors()...), a.bcTarget)
}

// Save serializes the snapshot with all four networks, in networks()
// order, then the best-action target — the training image checkpoints
// keep. It loads through Agent.Load or Agent.ReadSnapshot.
func (s *WeightSnapshot) Save(w io.Writer) error {
	var ts [][]float64
	for _, st := range s.nets {
		ts = append(ts, st.Tensors()...)
	}
	return writeModel(w, ts, s.bcTarget)
}

func writeModel(w io.Writer, nets [][]float64, bcTarget []float64) error {
	if len(bcTarget) > 0 {
		nets = append(nets, bcTarget)
	}
	if err := nn.WriteTensors(w, nets); err != nil {
		return fmt.Errorf("ddpg: save: %w", err)
	}
	return nil
}

// netNames labels the networks in networks() order for error messages.
var netNames = [...]string{"actor", "actor target", "critic", "critic target"}

// ReadSnapshot decodes a policy (Agent.Save) or four-network image
// (WeightSnapshot.Save), a policy's targets sharing its actor's and
// critic's states, and validates it against this agent without touching
// it: each network's layer dimensions must match the architecture Config
// builds, every weight and BatchNorm statistic must be finite, and a
// stored self-imitation target must fit ActionDim.
func (a *Agent) ReadSnapshot(r io.Reader) (*WeightSnapshot, error) {
	ts, err := nn.ReadTensors(r)
	if err != nil {
		return nil, fmt.Errorf("ddpg: load: %w", err)
	}
	// The tensor count tells the layouts apart: the policy's P = A+C tensors
	// or the four networks' 2P, each +1 with a best-action target; 2P > P+1.
	p := len(a.actor.Tensors()) + len(a.critic.net().Tensors())
	held := []int{0, 2} // indices into networks()
	switch len(ts) {
	case p, p + 1:
	case 2 * p, 2*p + 1:
		held = []int{0, 1, 2, 3}
	default:
		return nil, fmt.Errorf("ddpg: load: model does not match Config: %d tensors, want %d or %d (policy) or %d or %d (four networks)", len(ts), p, p+1, 2*p, 2*p+1)
	}
	nets, s := a.networks(), &WeightSnapshot{nets: make([]*nn.NetworkState, 4)}
	for _, i := range held {
		s.nets[i], ts, _ = nets[i].TakeState(ts) // the count is checked above
	}
	if len(held) == 2 {
		s.nets[1], s.nets[3] = s.nets[0], s.nets[2]
	}
	if len(ts) == 1 {
		s.bcTarget = ts[0]
	}
	if err := a.checkSnapshot(s); err != nil {
		return nil, fmt.Errorf("ddpg: load: model does not match Config (state %d, action %d): %w",
			a.cfg.StateDim, a.cfg.ActionDim, err)
	}
	for _, i := range held { // each decoded network once, however many slots share it
		if err := s.nets[i].Finite(); err != nil {
			return nil, fmt.Errorf("ddpg: load: corrupt model: %s: %w", netNames[i], err)
		}
	}
	s.netsFinite = true // set before anyone else can read s
	if err := s.Finite(); err != nil {
		return nil, fmt.Errorf("ddpg: load: corrupt model: %w", err)
	}
	return s, nil
}

// Load restores a model written by Save or WeightSnapshot.Save into an
// agent built with the same Config. Everything is decoded and validated
// (see ReadSnapshot) before any weight is touched: a corrupt or mismatched
// model is rejected with a descriptive error and the agent is left exactly
// as it was — a pending init included. The decoded tensors become the live
// weights (SetWeights). The optimizers' moments are not reset.
func (a *Agent) Load(r io.Reader) error {
	s, err := a.ReadSnapshot(r)
	if err != nil {
		return err
	}
	return a.SetWeights(s)
}
