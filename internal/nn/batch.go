package nn

import (
	"fmt"

	"advmal/internal/tensor"
)

// Batch-major eval forward: the serving-path engine behind ProbsBatch and
// PredictBatch. It runs layers outside and rows inside over two packed
// arenas, on the same Conv1D and Dense kernels as the per-row path
// (kernels.go) — a single request already has hundreds of independent
// outputs per layer for those kernels to overlap, so a batch adds no
// arithmetic headroom. What it does add:
//
//   - Dense visits every row of the batch with a block of eight weight
//     rows before it loads the next block, so the layer's weights are
//     read from memory once per batch, not once per request.
//   - ReLU / eval-mode MaxPool run over the packed batch arena without
//     the mask/argmax bookkeeping only the backward pass needs; eval-mode
//     Dropout is the identity and vanishes.
//
// The kernels are the per-row path's, so the batch path is bit-for-bit
// identical to it and to the allocating oracle
// (TestBatchForwardBitIdentical, TestBatchForwardZeroTaps).
//
// The plan owns two ping-pong arenas sized maxBoundary x rows; they are
// grown on demand and reused, so steady-state batched inference performs
// zero heap allocations (TestProbsBatchAllocFree). Like every other
// workspace query, batch calls are single-threaded per workspace.
//
// Contract note: the batch path does not pass through the workspace's
// single-row activation buffers, so after a ProbsBatch/PredictBatch call
// acts/gbufs no longer describe any particular row. Backward-pass queries
// keep their own per-row protocol; there is no batched backward pass.
type batchPlan struct {
	shapes  [][]int // boundary shapes, len(layers)+1
	sizes   []int   // boundary sizes (product of shape dims)
	maxSize int
	rows    int       // allocated row capacity of the arenas
	ping    []float64 // arena A: rows x maxSize
	pong    []float64 // arena B: rows x maxSize
	xt, yt  tensor.T  // reusable per-row views for generic kernels
}

// ensureBatchPlan returns the workspace's batch plan, building it on first
// use and growing the arenas when a larger batch arrives.
func (ws *Workspace) ensureBatchPlan(rows int) *batchPlan {
	bp := ws.bp
	if bp == nil {
		bp = &batchPlan{shapes: ws.shapes, sizes: make([]int, len(ws.shapes))}
		for i, shape := range ws.shapes {
			size := 1
			for _, d := range shape {
				size *= d
			}
			bp.sizes[i] = size
			if size > bp.maxSize {
				bp.maxSize = size
			}
		}
		ws.bp = bp
	}
	if rows > bp.rows {
		bp.rows = rows
		bp.ping = make([]float64, bp.maxSize*rows)
		bp.pong = make([]float64, bp.maxSize*rows)
	}
	return bp
}

// forwardBatch runs an eval-mode forward pass over every row of xs in
// batch-major order and returns the arena holding the logits plus its row
// stride: row r's logits are out[r*stride : r*stride+NumClasses]. The
// returned slice aliases a plan arena and is valid until the next batch
// call. Row lengths are validated like Forward (a mismatch panics; the
// serving path validates before enqueueing).
func (ws *Workspace) forwardBatch(xs [][]float64) (out []float64, stride int) {
	n := len(xs)
	bp := ws.ensureBatchPlan(n)
	in, nxt := bp.ping, bp.pong
	inSize := bp.sizes[0]
	for r, x := range xs {
		if len(x) != ws.inDim {
			panic(fmt.Sprintf("nn: workspace: batch row %d size %d, want %d", r, len(x), ws.inDim))
		}
		copy(in[r*inSize:(r+1)*inSize], x)
	}
	for li, k := range ws.kernels {
		outSize := bp.sizes[li+1]
		switch l := ws.net.layers[li].(type) {
		case *Flatten:
			// Pure reshape: the arena layout is already flat, and the
			// boundary sizes are equal, so the layer vanishes.
			continue
		case *Dropout:
			// Eval-mode dropout is the identity; skip the copy entirely.
			continue
		case *Dense:
			l.fwdRows(in, nxt, n, inSize, outSize)
		case *Conv1D:
			cols, outCols := bp.shapes[li][1], bp.shapes[li+1][1]
			for r := 0; r < n; r++ {
				l.fwdRow(in[r*inSize:(r+1)*inSize], nxt[r*outSize:(r+1)*outSize], cols, outCols)
			}
		case *ReLU:
			reluFwdBatch(in[:n*inSize], nxt)
		case *MaxPool1D:
			poolFwdBatch(l, in, nxt, n, inSize, outSize,
				bp.shapes[li], bp.shapes[li+1])
		default:
			// Any other layer (an external fallback) runs its per-row
			// workspace kernel over reusable row views.
			for r := 0; r < n; r++ {
				bp.xt.Shape, bp.xt.Data = bp.shapes[li], in[r*inSize:r*inSize+inSize]
				bp.yt.Shape, bp.yt.Data = bp.shapes[li+1], nxt[r*outSize:r*outSize+outSize]
				k.fwdWS(&ws.states[li], &bp.xt, &bp.yt, false)
			}
		}
		in, nxt = nxt, in
		inSize = outSize
	}
	return in, inSize
}

// reluFwdBatch applies ReLU over the packed batch arena in one pass,
// without the mask writes only the backward pass needs.
func reluFwdBatch(in, out []float64) {
	for i, v := range in {
		if v > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
}

// poolFwdBatch applies eval-mode max pooling per row without the argmax
// bookkeeping. Ties keep the earliest element, like the per-row kernel's
// index comparison.
func poolFwdBatch(m *MaxPool1D, in, out []float64, rows, inSize, outSize int, inShape, outShape []int) {
	chans := inShape[0]
	l := inShape[len(inShape)-1]
	lout := outShape[len(outShape)-1]
	for r := 0; r < rows; r++ {
		for ch := 0; ch < chans; ch++ {
			xRow := in[r*inSize+ch*l : r*inSize+(ch+1)*l]
			yRow := out[r*outSize+ch*lout : r*outSize+(ch+1)*lout]
			for t := 0; t < lout; t++ {
				base := t * m.size
				best := xRow[base]
				for j := base + 1; j < base+m.size; j++ {
					if xRow[j] > best {
						best = xRow[j]
					}
				}
				yRow[t] = best
			}
		}
	}
}
