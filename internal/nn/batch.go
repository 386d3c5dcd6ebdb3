package nn

import "fmt"

// Batch-major execution: the engine behind ProbsBatch, PredictBatch and
// every training step. It runs layers outside and rows inside over packed
// arenas, on the per-row path's own kernels (kernels.go), so it is
// bit-for-bit identical to that path and to the test oracle
// (TestBatchForwardBitIdentical, TestBatchForwardZeroTaps,
// TestTrainRowsBitIdentical). What the batch order changes:
//
//   - Dense runs every full group of four rows on dense8x4 and visits
//     every row with a block of eight weight rows before it loads the
//     next block, so the layer's weights are read from memory once per
//     batch, not once per row. Its backward pass (Dense.bwdRows) reads
//     each weight row and each gradient row once per batch too.
//   - ReLU is one relu (reluBwd) call over the packed arena, and a size-2
//     MaxPool over even rows one pool2 (pool2Bwd) call; a row of odd
//     length is pooled per channel, as in the per-row path. Dropout is
//     one loop over the arena, drawing from the layer's stream in row
//     order; in eval mode it is the identity and vanishes.
//   - Conv1D runs its per-row kernels once per row.
//
// A plan owns the arenas; it is grown on demand and reused, so steady
// state runs with zero heap allocations (TestProbsBatchAllocFree,
// TestWorkspaceAllocFree). An eval plan ping-pongs between two arenas. A
// train plan keeps every layer boundary, because the backward pass reads
// each layer's input, plus each dropout layer's mask, the logit
// gradients and two gradient arenas. Like every other workspace query,
// batch calls are single-threaded per workspace, and they never touch
// the single-row buffers (acts, gbufs) of Forward and its backprops.
type batchPlan struct {
	train bool
	sizes []int  // boundary sizes (product of shape dims), len(layers)+1
	skip  []bool // layer li is the identity here: acts[li+1] is acts[li]
	rows  int    // allocated row capacity of the arenas
	acts  [][]float64
	xt    []float64 // Dense.fwdRows's transposed groups of four rows

	// Train plans only.
	masks   [][]float64 // a dropping Dropout layer's keep-scale mask
	gin     []float64   // gradient arenas, rows x the largest boundary;
	gout    []float64   // gin starts as dLoss/dLogits
	lowest  int         // the first layer with parameters
	offs    []int       // Dense.bwdRows's row list
	gs      []float64
	labels  []int
	weights []float64
	loss    []float64
	hit     []bool
}

// trainSub is how many of a worker's rows one training pass takes at a
// time. Sixteen is four dense8x4 groups, and the paper CNN's train plan
// for it is about 2 MB, which a core's L2 mostly holds.
const trainSub = 16

// plan returns the workspace's eval or train plan, building it on first
// use and growing its arenas when a larger batch arrives.
func (ws *Workspace) plan(rows int, train bool) *batchPlan {
	pp := &ws.bp
	if train {
		pp = &ws.tp
	}
	bp := *pp
	if bp == nil {
		bp = &batchPlan{
			train:  train,
			sizes:  make([]int, len(ws.shapes)),
			skip:   make([]bool, len(ws.net.layers)),
			acts:   make([][]float64, len(ws.shapes)),
			masks:  make([][]float64, len(ws.net.layers)),
			lowest: len(ws.net.layers),
		}
		for i, shape := range ws.shapes {
			bp.sizes[i] = shapeSize(shape)
		}
		for li, l := range ws.net.layers {
			switch l := l.(type) {
			case *Flatten:
				bp.skip[li] = true
			case *Dropout:
				bp.skip[li] = !train || l.p <= 0
			}
			if len(l.Params()) > 0 && li < bp.lowest {
				bp.lowest = li
			}
		}
		*pp = bp
	}
	if rows > bp.rows {
		bp.grow(ws.net, rows)
	}
	return bp
}

// grow reallocates every arena of the plan for rows rows.
func (bp *batchPlan) grow(net *Network, rows int) {
	bp.rows = rows
	maxSize, maxIn := 0, 0
	for _, size := range bp.sizes {
		maxSize = max(maxSize, size)
	}
	for _, l := range net.layers {
		if d, ok := l.(*Dense); ok {
			maxIn = max(maxIn, d.in)
		}
	}
	bp.xt = make([]float64, (rows&^3)*maxIn)
	if !bp.train {
		arenas := [2][]float64{make([]float64, maxSize*rows), make([]float64, maxSize*rows)}
		cur := 0
		for i := range bp.acts {
			if i > 0 && !bp.skip[i-1] {
				cur ^= 1
			}
			bp.acts[i] = arenas[cur]
		}
		return
	}
	for i := range bp.acts {
		if i > 0 && bp.skip[i-1] {
			bp.acts[i] = bp.acts[i-1]
			continue
		}
		bp.acts[i] = make([]float64, bp.sizes[i]*rows)
	}
	for li, l := range net.layers {
		if _, ok := l.(*Dropout); ok && !bp.skip[li] {
			bp.masks[li] = make([]float64, bp.sizes[li+1]*rows)
		}
	}
	bp.gin, bp.gout = make([]float64, maxSize*rows), make([]float64, maxSize*rows)
	bp.offs, bp.gs = make([]int, rows), make([]float64, rows)
	bp.labels, bp.weights = make([]int, rows), make([]float64, rows)
	bp.loss, bp.hit = make([]float64, rows), make([]bool, rows)
}

// load copies input x into row r of the plan's input arena.
func (bp *batchPlan) load(r int, x []float64) {
	in := bp.sizes[0]
	if len(x) != in {
		panic(fmt.Sprintf("nn: workspace: batch row %d size %d, want %d", r, len(x), in))
	}
	copy(bp.acts[0][r*in:(r+1)*in], x)
}

// forwardBatch runs an eval-mode forward pass over every row of xs in
// batch-major order and returns the arena holding the logits plus its row
// stride: row r's logits are out[r*stride : r*stride+NumClasses]. The
// returned slice aliases a plan arena and is valid until the next batch
// call. Row lengths are validated like Forward (a mismatch panics; the
// serving path validates before enqueueing).
func (ws *Workspace) forwardBatch(xs [][]float64) (out []float64, stride int) {
	bp := ws.plan(len(xs), false)
	for r, x := range xs {
		bp.load(r, x)
	}
	ws.forwardRows(bp, len(xs))
	last := len(bp.acts) - 1
	return bp.acts[last], bp.sizes[last]
}

// forwardRows runs the forward pass over the first n rows of the plan's
// input arena, in the plan's mode: a train plan applies dropout, drawing
// from each layer's workspace stream, and keeps its masks.
func (ws *Workspace) forwardRows(bp *batchPlan, n int) {
	for li, l := range ws.net.layers {
		if bp.skip[li] {
			continue
		}
		inSize, outSize := bp.sizes[li], bp.sizes[li+1]
		in, out := bp.acts[li], bp.acts[li+1][:n*outSize]
		switch l := l.(type) {
		case *Dropout:
			l.dropout(ws.states[li].rng, bp.masks[li][:n*outSize], in, out)
		case *Dense:
			l.fwdRows(in, out, bp.xt, n, inSize, outSize)
		case *Conv1D:
			cols, outCols := shapeCols(ws.shapes[li]), shapeCols(ws.shapes[li+1])
			for r := 0; r < n; r++ {
				l.fwdRow(in[r*inSize:(r+1)*inSize], out[r*outSize:(r+1)*outSize], cols, outCols)
			}
		case *ReLU:
			relu(out, in)
		case *MaxPool1D:
			l.fwdRows(in, out, n*shapeRows(ws.shapes[li]), shapeCols(ws.shapes[li]), shapeCols(ws.shapes[li+1]))
		}
	}
}

// trainRows is one training pass over the first n rows loaded into a
// train plan, with bp.labels and bp.weights set for each: the train-mode
// forward pass, the weighted softmax cross-entropy of every row into
// bp.loss and bp.hit, and the backward pass, which accumulates every
// parameter gradient into the view's Param.G, rows in ascending order.
func (ws *Workspace) trainRows(bp *batchPlan, n int) {
	ws.forwardRows(bp, n)
	nc := ws.net.nClasses
	logits := bp.acts[len(bp.acts)-1]
	for r := 0; r < n; r++ {
		z, d := logits[r*nc:(r+1)*nc], bp.gin[r*nc:(r+1)*nc]
		loss := softmaxCEInto(d, z, bp.labels[r])
		if w := bp.weights[r]; w != 1 {
			loss *= w
			for j := range d {
				d[j] *= w
			}
		}
		bp.loss[r], bp.hit[r] = loss, Argmax(z) == bp.labels[r]
	}
	ws.backwardRows(bp, n)
}

// backwardRows propagates the logit gradients in bp.gin back through the
// layers, from the last down to the first with parameters, whose input
// gradient nothing reads and which is therefore not computed.
func (ws *Workspace) backwardRows(bp *batchPlan, n int) {
	g, dx := bp.gin, bp.gout
	for li := len(ws.net.layers) - 1; li >= bp.lowest; li-- {
		if bp.skip[li] {
			continue
		}
		inSize, outSize := bp.sizes[li], bp.sizes[li+1]
		x := bp.acts[li]
		var d []float64
		if li > bp.lowest {
			d = dx[:n*inSize]
		}
		switch l := ws.net.layers[li].(type) {
		case *Conv1D:
			for r := 0; r < n; r++ {
				var dr []float64
				if d != nil {
					dr = d[r*inSize : (r+1)*inSize]
				}
				l.bwdWS(&ws.states[li], x[r*inSize:(r+1)*inSize], g[r*outSize:(r+1)*outSize], dr, true)
			}
		case *Dense:
			l.bwdRows(x, g, d, n, bp.offs, bp.gs)
		case *ReLU:
			reluBwd(d, g, x)
		case *MaxPool1D:
			l.bwdRows(x, g, d, n*shapeRows(ws.shapes[li]), shapeCols(ws.shapes[li]), shapeCols(ws.shapes[li+1]))
		case *Dropout:
			dropoutBwd(d, g, bp.masks[li])
		}
		g, dx = dx, g
	}
}
