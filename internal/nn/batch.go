package nn

import "fmt"

// Batch-major execution: the one executor every workspace query runs on.
// A plan runs layers outside and rows inside over packed arenas, on the
// kernels of kernels.go and kernels_bwd.go, bit-for-bit identical to the
// test oracle applied row by row (TestWorkspaceBitIdentical,
// TestBatchForwardBitIdentical, TestTrainRowsBitIdentical). What the batch
// order changes:
//
//   - Dense runs every full group of four rows on dense8x4 and visits
//     every row with a block of eight weight rows before it loads the
//     next block, so the layer's weights are read from memory once per
//     batch, not once per row. The 1-3 rows a batch leaves over run on
//     the layer's pack, which reads the weights of nonzero inputs only,
//     except in a train plan, which pads them to one more group.
//     Its backward pass (Dense.bwdRows) reads each weight row and each
//     gradient row once per batch too.
//   - ReLU is one relu (reluBwd) call over the packed arena, and a size-2
//     MaxPool over even rows one pool2 (pool2Bwd) call; a row of odd
//     length is pooled per channel. Dropout is one loop over the arena,
//     drawing from the layer's stream in row order; in eval mode it is the
//     identity and vanishes, and Flatten always does.
//   - Conv1D runs its per-row kernels once per row.
//
// A plan has one of three kinds, fixed when it is built:
//
//   - infer (ProbsBatch): eval mode, ping-ponging between two arenas.
//   - grad (Logits, Probs, Predict, SafeProbs, LossGrad, InputGrad,
//     Jacobian): one row, eval mode, every layer boundary kept, so a
//     backward pass can follow the forward one; it runs down to the input
//     and accumulates nothing, and the logits stay valid across it.
//   - train (TrainStep and the Trainer): train mode, every boundary and
//     each dropping Dropout layer's mask kept; its backward pass
//     accumulates every parameter gradient into the view's Param.G and
//     stops at the first layer with parameters.
//
// A plan owns its arenas; it is grown on demand and reused, so steady
// state runs with zero heap allocations (TestProbsBatchAllocFree,
// TestWorkspaceAllocFree). Like every other workspace query, plan calls
// are single-threaded per workspace.
type batchPlan struct {
	kind  planKind
	sizes []int  // boundary sizes (product of shape dims), len(layers)+1
	skip  []bool // layer li is the identity here: acts[li+1] is acts[li]
	rows  int    // allocated row capacity of the arenas
	acts  [][]float64
	xt    []float64 // Dense.fwdRows's transposed groups of four rows
	offs  []int     // Dense.fwdPacked's input list, Dense.bwdRows's row
	gs    []float64 // list: max(rows, the widest dense input) entries

	// Grad and train plans.
	gin    []float64 // gradient arenas, rows x the largest boundary;
	gout   []float64 // gin starts as dLoss/dLogits
	lowest int       // the last layer the backward pass runs

	// Train plans only.
	masks   [][]float64 // a dropping Dropout layer's keep-scale mask
	labels  []int
	weights []float64
	loss    []float64
	hit     []bool
}

// planKind is what a plan runs: see batchPlan.
type planKind uint8

const (
	planInfer planKind = iota
	planGrad
	planTrain
)

// trainSub is how many of a worker's rows one training pass takes at a
// time. Sixteen is four dense8x4 groups, and the paper CNN's train plan
// for it is about 2 MB, which a core's L2 mostly holds.
const trainSub = 16

// plan returns the workspace's plan of the given kind, building it on
// first use and growing its arenas when a larger batch arrives. A train
// plan holds a multiple of four rows, the last group of Dense.fwdRows.
func (ws *Workspace) plan(rows int, kind planKind) *batchPlan {
	if kind == planTrain {
		rows = (rows + 3) &^ 3
	}
	bp := ws.plans[kind]
	if bp == nil {
		bp = &batchPlan{
			kind:  kind,
			sizes: make([]int, len(ws.shapes)),
			skip:  make([]bool, len(ws.net.layers)),
			acts:  make([][]float64, len(ws.shapes)),
			masks: make([][]float64, len(ws.net.layers)),
		}
		for i, shape := range ws.shapes {
			bp.sizes[i] = shapeSize(shape)
		}
		if kind == planTrain {
			bp.lowest = len(ws.net.layers)
		}
		for li, l := range ws.net.layers {
			switch l := l.(type) {
			case *Flatten:
				bp.skip[li] = true
			case *Dropout:
				bp.skip[li] = kind != planTrain || l.p <= 0
			}
			if kind == planTrain && len(l.Params()) > 0 && li < bp.lowest {
				bp.lowest = li
			}
		}
		ws.plans[kind] = bp
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
	bp.offs, bp.gs = make([]int, max(rows, maxIn)), make([]float64, max(rows, maxIn))
	if bp.kind == planInfer {
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
	bp.gin, bp.gout = make([]float64, maxSize*rows), make([]float64, maxSize*rows)
	if bp.kind == planGrad {
		return
	}
	for li, l := range net.layers {
		if _, ok := l.(*Dropout); ok && !bp.skip[li] {
			bp.masks[li] = make([]float64, bp.sizes[li+1]*rows)
		}
	}
	bp.labels, bp.weights = make([]int, rows), make([]float64, rows)
	bp.loss, bp.hit = make([]float64, rows), make([]bool, rows)
}

// load copies input x into row r of the plan's input arena. A row of the
// wrong length panics (SafeProbs validates untrusted inputs first).
func (bp *batchPlan) load(r int, x []float64) {
	in := bp.sizes[0]
	if len(x) != in {
		panic(fmt.Sprintf("nn: workspace: row %d: input size %d, want %d", r, len(x), in))
	}
	copy(bp.acts[0][r*in:(r+1)*in], x)
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
			l.fwdRows(bp, in, bp.acts[li+1], n, inSize, outSize)
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
// layers above bp.lowest, and through bp.lowest itself, and returns the
// arena holding the last gradient it computed. A grad plan runs down to
// the input, accumulates nothing and returns the input gradient. A train
// plan accumulates every parameter gradient into the view's Param.G and
// does not compute the input gradient of its lowest layer, the first
// with parameters, which nothing reads.
func (ws *Workspace) backwardRows(bp *batchPlan, n int) []float64 {
	accum := bp.kind == planTrain
	g, dx := bp.gin, bp.gout
	for li := len(ws.net.layers) - 1; li >= bp.lowest; li-- {
		if bp.skip[li] {
			continue
		}
		inSize, outSize := bp.sizes[li], bp.sizes[li+1]
		x := bp.acts[li]
		var d []float64
		if li > bp.lowest || !accum {
			d = dx[:n*inSize]
		}
		switch l := ws.net.layers[li].(type) {
		case *Conv1D:
			cols, outCols := shapeCols(ws.shapes[li]), shapeCols(ws.shapes[li+1])
			for r := 0; r < n; r++ {
				var dr []float64
				if d != nil {
					dr = d[r*inSize : (r+1)*inSize]
				}
				l.bwdRow(&ws.states[li], x[r*inSize:(r+1)*inSize], g[r*outSize:(r+1)*outSize], dr, cols, outCols, accum)
			}
		case *Dense:
			l.bwdRows(x, g, d, n, bp.offs, bp.gs, accum)
		case *ReLU:
			reluBwd(d, g, x)
		case *MaxPool1D:
			l.bwdRows(x, g, d, n*shapeRows(ws.shapes[li]), shapeCols(ws.shapes[li]), shapeCols(ws.shapes[li+1]))
		case *Dropout:
			dropoutBwd(d, g, bp.masks[li])
		}
		g, dx = dx, g
	}
	return g
}
