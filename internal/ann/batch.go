package ann

// Scratch holds the reusable buffers the batched forward kernels write
// into: per-layer activation matrices. A Scratch grows to the largest
// (network, batch) shape it has seen and is then allocation-free across
// calls.
//
// A Scratch is not safe for concurrent use; give each worker goroutine
// its own (ForwardBatch never writes to shared network state through
// it, so many goroutines may score the same network concurrently with
// separate Scratches).
type Scratch struct {
	acts [][]float64 // per layer: rows × layer.out activations

	// Float32 tier (KernelFast32): per-call rounded copies of the flat
	// weight layout and the input batch, plus float32 activations.
	w32    []float32
	in32   []float32
	acts32 [][]float32
	wT32   []float32 // input-major weight repack for the vector kernel
}

// NewScratch returns an empty scratch; buffers are sized lazily by the
// first batched call.
func NewScratch() *Scratch { return &Scratch{} }

func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// ensure sizes the scratch for one batched pass over rows examples.
func (s *Scratch) ensure(n *Network, rows int) {
	if len(s.acts) < len(n.layers) {
		s.acts = make([][]float64, len(n.layers))
	}
	for li, l := range n.layers {
		s.acts[li] = grow(s.acts[li], rows*l.out)
	}
}

func (n *Network) forwardBatchExact(xs []float64, rows int, s *Scratch) []float64 {
	if s == nil {
		s = NewScratch()
	}
	s.ensure(n, rows)
	in := xs
	for li, l := range n.layers {
		l.forwardBatch(in, rows, s.acts[li])
		in = s.acts[li]
	}
	return s.acts[len(n.layers)-1]
}

// forwardBatch computes this layer's activations for rows examples.
// The kernel processes four examples per weight-row pass, so each
// weight load feeds four independent accumulators — the register
// blocking that makes batched scoring several times faster than
// per-point calls.
func (l *layer) forwardBatch(in []float64, rows int, out []float64) {
	stride := l.in + 1
	inW := l.in
	outW := l.out
	r := 0
	for ; r+4 <= rows; r += 4 {
		x0 := in[(r+0)*inW : (r+0)*inW+inW]
		x1 := in[(r+1)*inW : (r+1)*inW+inW]
		x2 := in[(r+2)*inW : (r+2)*inW+inW]
		x3 := in[(r+3)*inW : (r+3)*inW+inW]
		o0 := out[(r+0)*outW : (r+0)*outW+outW]
		o1 := out[(r+1)*outW : (r+1)*outW+outW]
		o2 := out[(r+2)*outW : (r+2)*outW+outW]
		o3 := out[(r+3)*outW : (r+3)*outW+outW]
		for j := 0; j < outW; j++ {
			row := l.w[j*stride : j*stride+inW]
			b := l.w[j*stride+inW]
			s0, s1, s2, s3 := b, b, b, b
			for i, w := range row {
				s0 += w * x0[i]
				s1 += w * x1[i]
				s2 += w * x2[i]
				s3 += w * x3[i]
			}
			o0[j], o1[j], o2[j], o3[j] = s0, s1, s2, s3
		}
	}
	for ; r < rows; r++ {
		x := in[r*inW : r*inW+inW]
		o := out[r*outW : r*outW+outW]
		for j := 0; j < outW; j++ {
			row := l.w[j*stride : j*stride+inW]
			sum := l.w[j*stride+inW]
			for i, w := range row {
				sum += w * x[i]
			}
			o[j] = sum
		}
	}
	l.act.applyBatch(out[:rows*outW])
}
