// Package ann implements the fully connected feed-forward artificial
// neural networks at the heart of the paper's predictive models
// (Chapter 3): sigmoid hidden units, gradient-descent training via
// backpropagation with momentum (Equations 3.1/3.2), small uniform
// weight initialization, presentation-frequency weighting (so the nets
// optimize percentage rather than absolute error, §3.3), and early
// stopping on a held-aside set.
//
// All weights of a network live in one contiguous []float64 (layer
// after layer, row-major within a layer). Training is per-example
// stochastic gradient descent (Train), one example at a time as in the
// paper. Scoring goes through the batched entry point ForwardBatch
// (kernel.go) and the Scratch buffers it reuses (batch.go), which run
// many examples through the flat layout at once. This is the compute
// core the rest of the repository leans on: the ensemble's
// candidate-pool scoring and full-space sweeps go through ForwardBatch
// rather than per-point calls.
//
// The package is self-contained and generic over input/output
// dimensions; the design-space-specific encoding and the
// cross-validation ensembling live in internal/encoding and
// internal/core respectively.
package ann

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Activation selects a unit nonlinearity.
type Activation uint8

// Supported activations. The paper's hidden units are sigmoid
// (Figure 3.2); the output unit is linear by default here so the
// regression range is unbounded after denormalization, with Sigmoid
// available for a paper-exact configuration.
const (
	Sigmoid Activation = iota
	Tanh
	Linear
	ReLU
)

// String names the activation.
func (a Activation) String() string {
	switch a {
	case Sigmoid:
		return "sigmoid"
	case Tanh:
		return "tanh"
	case Linear:
		return "linear"
	case ReLU:
		return "relu"
	}
	return fmt.Sprintf("activation(%d)", uint8(a))
}

// apply is the scalar definition of the activation. The network's
// forward paths run applyBatch; tests hold the two to the same bits.
func (a Activation) apply(x float64) float64 {
	switch a {
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	case Tanh:
		return math.Tanh(x)
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	default:
		return x
	}
}

// applyBatch applies the activation to ys in place. Hoisting the
// activation switch out of the unit loop matters on both the batched
// scoring path and the per-example training step; the per-element work
// is otherwise identical to apply.
func (a Activation) applyBatch(ys []float64) {
	switch a {
	case Sigmoid:
		for i, y := range ys {
			ys[i] = 1 / (1 + math.Exp(-y))
		}
	case Tanh:
		for i, y := range ys {
			ys[i] = math.Tanh(y)
		}
	case ReLU:
		for i, y := range ys {
			if y < 0 {
				ys[i] = 0
			}
		}
	}
}

// derivFromOutput returns dy/dx expressed in terms of the activation
// output y (all supported activations admit this form, which avoids
// recomputing the transcendental).
func (a Activation) derivFromOutput(y float64) float64 {
	switch a {
	case Sigmoid:
		return y * (1 - y)
	case Tanh:
		return 1 - y*y
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	default:
		return 1
	}
}

// Config describes a network architecture and its training
// hyperparameters.
type Config struct {
	Inputs  int
	Hidden  []int // hidden-layer sizes, e.g. {16}
	Outputs int

	HiddenAct Activation
	OutputAct Activation

	LearningRate float64 // η in Equation 3.1
	Momentum     float64 // α in Equation 3.2
	InitRange    float64 // weights start uniform on [-InitRange, +InitRange]
	Seed         uint64
}

// PaperConfig returns the exact hyperparameters of §3.1: one hidden
// layer of 16 sigmoid units, learning rate 0.001, momentum 0.5, and
// initial weights uniform on [-0.01, +0.01].
func PaperConfig(inputs, outputs int) Config {
	return Config{
		Inputs:       inputs,
		Hidden:       []int{16},
		Outputs:      outputs,
		HiddenAct:    Sigmoid,
		OutputAct:    Linear,
		LearningRate: 0.001,
		Momentum:     0.5,
		InitRange:    0.01,
	}
}

// Validate reports structural problems with the configuration.
func (c Config) Validate() error {
	if c.Inputs <= 0 || c.Outputs <= 0 {
		return fmt.Errorf("ann: Config.Inputs and Config.Outputs must both be positive, got %d/%d", c.Inputs, c.Outputs)
	}
	for i, h := range c.Hidden {
		if h <= 0 {
			return fmt.Errorf("ann: hidden layer %d has non-positive size %d", i, h)
		}
	}
	if c.LearningRate <= 0 {
		return fmt.Errorf("ann: learning rate must be positive, got %g", c.LearningRate)
	}
	if c.Momentum < 0 || c.Momentum >= 1 {
		return fmt.Errorf("ann: momentum must be in [0,1), got %g", c.Momentum)
	}
	return nil
}

// layer describes one fully connected layer. Its weight and momentum
// slices are views into the network's single contiguous buffers, stored
// row-major: w[j*(in+1)+i] is the weight from input i to unit j, with
// the bias at index in (a constant-1 input, as in Figure 3.2).
type layer struct {
	in, out int
	off     int       // offset of this layer's weights in the flat buffer
	w       []float64 // view into Network.w
	dwPrev  []float64 // view into Network.dwPrev (momentum term)
	act     Activation

	// Per-example forward/backward scratch (the batched forward path
	// uses a caller-provided Scratch instead, so it can run
	// concurrently).
	output []float64
	delta  []float64
}

// Network is a feed-forward fully connected neural network. All
// trainable weights live in one flat buffer so snapshots, clones and
// the batched kernels touch a single contiguous allocation.
type Network struct {
	cfg    Config
	w      []float64 // every layer's weights, back to back
	dwPrev []float64 // previous updates, aligned with w
	layers []*layer
}

// New constructs a network with freshly initialized weights. It panics
// on an invalid configuration (architectures are static study
// descriptions; failing fast is the useful behaviour).
func New(cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rng := stats.NewRNG(cfg.Seed ^ 0xA11CE5)
	n := &Network{cfg: cfg}

	dims := make([][2]int, 0, len(cfg.Hidden)+1)
	prev := cfg.Inputs
	for _, h := range cfg.Hidden {
		dims = append(dims, [2]int{prev, h})
		prev = h
	}
	dims = append(dims, [2]int{prev, cfg.Outputs})

	total := 0
	for _, d := range dims {
		total += d[1] * (d[0] + 1)
	}
	n.w = make([]float64, total)
	n.dwPrev = make([]float64, total)

	off := 0
	for i, d := range dims {
		in, out := d[0], d[1]
		size := out * (in + 1)
		act := cfg.HiddenAct
		if i == len(dims)-1 {
			act = cfg.OutputAct
		}
		l := &layer{
			in:     in,
			out:    out,
			off:    off,
			w:      n.w[off : off+size : off+size],
			dwPrev: n.dwPrev[off : off+size : off+size],
			act:    act,
			output: make([]float64, out),
			delta:  make([]float64, out),
		}
		for j := range l.w {
			l.w[j] = rng.Range(-cfg.InitRange, cfg.InitRange)
		}
		n.layers = append(n.layers, l)
		off += size
	}
	return n
}

// Config returns the configuration the network was built from.
func (n *Network) Config() Config { return n.cfg }

// NumWeights returns the total number of trainable weights (including
// biases).
func (n *Network) NumWeights() int { return len(n.w) }

// forward computes this layer's activations for one example. Four
// units are summed side by side, so four independent accumulation
// chains share each input load; each unit's sum still starts at its
// bias and adds the inputs in index order, so every unit's result is
// bit-identical to a one-unit-at-a-time loop. The activation runs once
// over the whole layer through applyBatch.
func (l *layer) forward(x []float64) []float64 {
	stride := l.in + 1
	x = x[:l.in]
	out := l.output[:l.out]
	j := 0
	for ; j+4 <= len(out); j += 4 {
		r0 := l.w[(j+0)*stride : (j+0)*stride+stride]
		r1 := l.w[(j+1)*stride : (j+1)*stride+stride]
		r2 := l.w[(j+2)*stride : (j+2)*stride+stride]
		r3 := l.w[(j+3)*stride : (j+3)*stride+stride]
		r0, r1, r2, r3 = r0[:len(x)+1], r1[:len(x)+1], r2[:len(x)+1], r3[:len(x)+1]
		s0, s1, s2, s3 := r0[len(x)], r1[len(x)], r2[len(x)], r3[len(x)] // biases
		for i, xi := range x {
			s0 += r0[i] * xi
			s1 += r1[i] * xi
			s2 += r2[i] * xi
			s3 += r3[i] * xi
		}
		out[j], out[j+1], out[j+2], out[j+3] = s0, s1, s2, s3
	}
	for ; j < len(out); j++ {
		row := l.w[j*stride : j*stride+stride]
		row = row[:len(x)+1]
		sum := row[len(x)] // bias
		for i, xi := range x {
			sum += row[i] * xi
		}
		out[j] = sum
	}
	l.act.applyBatch(out)
	return out
}

// forward runs one example through the network and returns the output
// activations: the per-example pass Train backpropagates through. The
// returned slice is scratch owned by the network and is overwritten by
// the next call. Because it writes the network-owned buffers it is NOT
// safe for concurrent use; scoring goes through ForwardBatch with
// private Scratches instead.
func (n *Network) forward(x []float64) []float64 {
	if len(x) != n.cfg.Inputs {
		panic(fmt.Sprintf("ann: got %d inputs, network has %d", len(x), n.cfg.Inputs))
	}
	h := x
	for _, l := range n.layers {
		h = l.forward(h)
	}
	return h
}

// Train performs one stochastic gradient-descent step on a single
// example with the given learning rate, backpropagating the squared
// error between the network output and target (Equations 3.1 and 3.2).
// It returns the example's squared error before the update.
func (n *Network) Train(x, target []float64, lr float64) float64 {
	if len(target) != n.cfg.Outputs {
		panic(fmt.Sprintf("ann: got %d targets, network has %d outputs", len(target), n.cfg.Outputs))
	}
	out := n.forward(x)

	// Output-layer deltas: δ = (o - t) · f'(o).
	last := n.layers[len(n.layers)-1]
	var se float64
	for j, o := range out {
		e := o - target[j]
		se += e * e
		last.delta[j] = e * last.act.derivFromOutput(o)
	}

	// Hidden-layer deltas, back to front: δ_j = f'(o_j)·Σ_k w_kj·δ_k.
	// Walking the next layer's weight rows in k order accumulates every
	// δ_j from zero over the same k sequence as a per-unit sum, over
	// contiguous rows.
	for li := len(n.layers) - 2; li >= 0; li-- {
		l, next := n.layers[li], n.layers[li+1]
		stride := next.in + 1
		deltas := l.delta[:l.out]
		clear(deltas)
		for k, dk := range next.delta[:next.out] {
			row := next.w[k*stride : k*stride+len(deltas)]
			for j, w := range row {
				deltas[j] += w * dk
			}
		}
		for j, o := range l.output[:len(deltas)] {
			deltas[j] *= l.act.derivFromOutput(o)
		}
	}

	// Weight updates with momentum: Δw = -η ∂E/∂w + α Δw_prev.
	mom := n.cfg.Momentum
	input := x
	for _, l := range n.layers {
		l.update(input, lr, mom)
		input = l.output
	}
	return se / 2
}

// update applies one momentum step to this layer's weights from the
// layer's input x and its deltas: Δw = -η·δ·x + α·Δw_prev, with the
// bias input fixed at 1. Go evaluates -lr*d*x as (-lr*d)*x, so forming
// g = -η·δ once per unit leaves every update bit-identical to the
// textbook loop. Two units are updated side by side so each input load
// feeds both, and the rows are re-sliced to the input length so the
// inner loop runs without bounds checks.
func (l *layer) update(x []float64, lr, mom float64) {
	x = x[:l.in]
	stride := len(x) + 1
	w, prev := l.w, l.dwPrev[:len(l.w)]
	deltas := l.delta[:l.out]
	for ; len(deltas) >= 2; deltas = deltas[2:] {
		g0, g1 := -lr*deltas[0], -lr*deltas[1]
		w0, w1 := w[:stride], w[stride:2*stride]
		p0, p1 := prev[:stride], prev[stride:2*stride]
		w0, w1, p0, p1 = w0[:len(x)+1], w1[:len(x)+1], p0[:len(x)+1], p1[:len(x)+1]
		for i, xi := range x {
			d0 := g0*xi + mom*p0[i]
			d1 := g1*xi + mom*p1[i]
			w0[i] += d0
			w1[i] += d1
			p0[i], p1[i] = d0, d1
		}
		d0 := g0 + mom*p0[len(x)]
		d1 := g1 + mom*p1[len(x)]
		w0[len(x)] += d0
		w1[len(x)] += d1
		p0[len(x)], p1[len(x)] = d0, d1
		w, prev = w[2*stride:], prev[2*stride:]
	}
	if len(deltas) == 1 {
		g := -lr * deltas[0]
		row, prow := w[:len(x)+1], prev[:len(x)+1]
		for i, xi := range x {
			dw := g*xi + mom*prow[i]
			row[i] += dw
			prow[i] = dw
		}
		dw := g + mom*prow[len(x)]
		row[len(x)] += dw
		prow[len(x)] = dw
	}
}

// Snapshot returns a deep copy of all weights, used by early stopping
// to remember the best model seen.
func (n *Network) Snapshot() [][]float64 {
	s := make([][]float64, len(n.layers))
	for i, l := range n.layers {
		s[i] = append([]float64(nil), l.w...)
	}
	return s
}

// Restore loads weights previously captured by Snapshot and clears the
// momentum state (a restored model should not continue a stale update
// direction).
func (n *Network) Restore(s [][]float64) {
	if len(s) != len(n.layers) {
		panic("ann: snapshot layer count mismatch")
	}
	for i, l := range n.layers {
		if len(s[i]) != len(l.w) {
			panic("ann: snapshot size mismatch")
		}
		copy(l.w, s[i])
	}
	for j := range n.dwPrev {
		n.dwPrev[j] = 0
	}
}

// SnapshotInto copies all weights into dst, reusing its capacity when
// possible, and returns it. It is the allocation-free counterpart of
// Snapshot for callers that snapshot repeatedly (early stopping keeps
// one buffer alive across hundreds of improvements instead of
// allocating per-layer slices each time).
func (n *Network) SnapshotInto(dst []float64) []float64 {
	if cap(dst) < len(n.w) {
		dst = make([]float64, len(n.w))
	}
	dst = dst[:len(n.w)]
	copy(dst, n.w)
	return dst
}

// RestoreFlat loads weights previously captured by SnapshotInto and
// clears the momentum state, exactly like Restore.
func (n *Network) RestoreFlat(src []float64) {
	if len(src) != len(n.w) {
		panic("ann: flat snapshot size mismatch")
	}
	copy(n.w, src)
	for j := range n.dwPrev {
		n.dwPrev[j] = 0
	}
}

// Clone returns an independent copy of the network (weights and
// configuration; scratch state is fresh).
func (n *Network) Clone() *Network {
	c := New(n.cfg)
	copy(c.w, n.w)
	return c
}
