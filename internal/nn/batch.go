package nn

import "fmt"

// Batch-major eval forward: the serving-path engine behind ProbsBatch and
// PredictBatch. It runs layers outside and rows inside over two packed
// arenas, on the per-row path's own kernels (kernels.go), so it is
// bit-for-bit identical to that path and to the test oracle
// (TestBatchForwardBitIdentical, TestBatchForwardZeroTaps). What the
// batch order changes:
//
//   - Dense visits every row of the batch with a block of eight weight
//     rows before it loads the next block, so the layer's weights are
//     read from memory once per batch, not once per request.
//   - ReLU is one relu call over the packed arena, and a size-2 MaxPool
//     over even rows one pool2 call; a row of odd length is pooled per
//     channel, as in the per-row path. Eval-mode Dropout is the identity
//     and vanishes.
//   - Conv1D runs Conv1D.fwdRow once per row, as the per-row path does.
//
// The plan owns two ping-pong arenas sized maxBoundary x rows; they are
// grown on demand and reused, so steady-state batched inference performs
// zero heap allocations (TestProbsBatchAllocFree). Like every other
// workspace query, batch calls are single-threaded per workspace.
//
// Contract note: the batch path does not touch the workspace's single-row
// buffers (acts, gbufs). Backward-pass queries keep their own per-row
// protocol, a Forward and then its backprops; there is no batched
// backward pass.
type batchPlan struct {
	sizes   []int // boundary sizes (product of shape dims), len(layers)+1
	maxSize int
	rows    int       // allocated row capacity of the arenas
	ping    []float64 // arena A: rows x maxSize
	pong    []float64 // arena B: rows x maxSize
}

// ensureBatchPlan returns the workspace's batch plan, building it on first
// use and growing the arenas when a larger batch arrives.
func (ws *Workspace) ensureBatchPlan(rows int) *batchPlan {
	bp := ws.bp
	if bp == nil {
		bp = &batchPlan{sizes: make([]int, len(ws.shapes))}
		for i, shape := range ws.shapes {
			size := shapeSize(shape)
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
	for li, l := range ws.net.layers {
		outSize := bp.sizes[li+1]
		switch l := l.(type) {
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
			cols, outCols := shapeCols(ws.shapes[li]), shapeCols(ws.shapes[li+1])
			for r := 0; r < n; r++ {
				l.fwdRow(in[r*inSize:(r+1)*inSize], nxt[r*outSize:(r+1)*outSize], cols, outCols)
			}
		case *ReLU:
			relu(nxt[:n*outSize], in)
		case *MaxPool1D:
			l.fwdRows(in, nxt, n*shapeRows(ws.shapes[li]), shapeCols(ws.shapes[li]), shapeCols(ws.shapes[li+1]))
		}
		in, nxt = nxt, in
		inSize = outSize
	}
	return in, inSize
}
