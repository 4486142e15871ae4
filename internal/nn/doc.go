// Package nn implements the small feed-forward neural-network stack used by
// CDBTune's deep reinforcement-learning agents: dense, ReLU, Tanh, Sigmoid,
// Dropout and BatchNorm layers with hand-written backpropagation, plus SGD
// and Adam optimizers. The layer set is exactly what Table 5 of the paper's
// actor-critic architecture requires.
//
// # Buffer ownership
//
// Layers pool their output, gradient and inference buffers via mat.Reuse,
// so a steady-state train step (Forward + Backward + optimizer sweep)
// allocates nothing. The matrix returned by a layer's Forward, Backward or
// Infer is owned by that layer and valid only until its next call of the
// same kind — callers that need the values past that point must Clone.
// Network.Forward/Infer results follow the same rule: the DDPG agent
// copies action rows out before the next pass, and anything retaining a
// network output across passes must do the same.
//
// Forward (training or evaluation mode) and Infer use disjoint buffers:
// an Infer call between a training Forward and its Backward leaves the
// cached activations untouched. Eval-mode Forward does NOT have that
// guarantee — it overwrites the caches — which is exactly why Infer
// exists.
//
// # Concurrency
//
// A layer, and hence a Network, is single-threaded: its scratch buffers
// are unsynchronized, so two concurrent passes through the same network
// race. Distinct Network instances are fully independent and may run
// concurrently (the DDPG learner overlaps target-network and online-
// network passes this way). Within one pass the mat kernels may fan out
// across goroutines internally; that is invisible to callers.
//
// # The optimizer sweep
//
// Adam.Sweep is everything a training step does to a network after its
// backward pass, in one pass over the parameters: apply the clip factor
// Network.ClipScale computed, the Adam update, the clearing of the
// gradient, the Polyak blend into a target network, and the max |weight|
// health signal (NaN as soon as any weight is). Ownership: Sweep writes
// the optimizer's own network — weights, gradients, moments — and the
// weights of the target network it is handed, which therefore must not be
// in use by another goroutine (the DDPG learner's overlapped target pass
// has joined by then). It is unconditional: whether an update may be
// applied — a finite loss, a finite gradient norm — is decided before
// calling it, from ClipScale's norm, which writes nothing. Adam.Step is
// the sweep with no clipping and no target. sweepScalar is the one
// written form of the update rule; on amd64 hosts with AVX2 (mat.HasAVX2
// — CPU detection stays in internal/mat) whole 4-element blocks go
// through the kernel in sweep_amd64.s, which performs the same operations
// in the same order with the same roundings, so the weights are the same
// bits on every host.
//
// # Storage on first need
//
// A network pays for learner scratch only once it learns. A Param's Grad
// is nil until its first backward pass or ZeroGrad. Network.ZeroGrad
// allocates every buffer of the network at once. A network that is never
// backpropagated, such as a DDPG target network, never gets any; ClipScale
// reads a missing buffer as zero. Adam allocates its moments at its first
// Sweep, and Reset before then is a no-op.
//
// Values can come on first need too. A Param whose Value has a shape but
// nil Data is unallocated: InitNormal, InitUniform and CopyTo's
// destination allocate it, and Adopt points it at a state's tensors.
// Nothing else may touch it first. Adopt makes a NetworkState the
// network's live parameters and BatchNorm statistics without copying.
// The network then treats them as read-only until Own, the copy-on-write
// half, gives it private copies. CopyTo and the Init methods call Own
// themselves; whoever else writes an adopted network (an optimizer sweep,
// a training-mode Forward) must call it first.
// internal/rl/ddpg builds its agents this way, so a model loaded from the
// registry is served from the decoded tensors themselves.
//
// # Serialization
//
// A saved network is a flat list of float64 tensors in a length-prefixed
// little-endian raw format (WriteTensors/ReadTensors: magic, version,
// tensor count, per-tensor length, IEEE-754 bits — bit-exact, 8 bytes a
// value). Network.Tensors fixes the order: parameters in layer order, then
// BatchNorm running means, then running variances; the architecture is
// not stored. ReadTensors treats its input as untrusted and bounds every
// declared count and length by the bytes remaining before it allocates;
// shape and finiteness are the caller's next two gates (TakeState +
// CheckState, NetworkState.Finite) and nothing is applied until both
// pass. NetworkState is the same data as plain slices, for in-memory
// snapshots: State copies a network out, Adopt takes one in. DESIGN.md
// §11 has the byte layout.
//
// # Weight decay
//
// SGD and Adam apply L2 weight decay to weight matrices only. Bias rows
// ("b"), BatchNorm shift ("beta") and BatchNorm scale ("gamma") are
// exempt: decaying gamma toward 0 or the others toward identity-breaking
// values regularizes nothing and measurably skews BatchNorm statistics.
package nn
