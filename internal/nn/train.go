package nn

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"

	"advmal/internal/pool"
)

// Training errors.
var (
	// ErrNoTrainData indicates FitCtx was called with an empty dataset.
	ErrNoTrainData = errors.New("nn: no training data")
	// ErrLabelRange indicates a label outside [0, classes).
	ErrLabelRange = errors.New("nn: label out of range")
)

// Adam is the Adam optimizer (Kingma & Ba) with standard defaults.
type Adam struct {
	LR    float64 // 0 means 1e-3
	Beta1 float64 // 0 means 0.9
	Beta2 float64 // 0 means 0.999
	Eps   float64 // 0 means 1e-8

	t    int
	m, v [][]float64
	k    adamConsts // the current step's scalars (begin)
}

// Step applies the gradients in params, scaled by 1/scale, to the
// weights; it clears nothing, so callers zero gradients themselves.
func (a *Adam) Step(params []*Param, scale float64) {
	a.begin(params, scale)
	for pi, p := range params {
		a.update(pi, p, 0, len(p.W))
	}
}

// begin starts one step: it allocates the moments on first use, advances
// the step count and fixes the step's scalars for update.
func (a *Adam) begin(params []*Param, scale float64) {
	lr, b1, b2, eps := a.LR, a.Beta1, a.Beta2, a.Eps
	if lr == 0 {
		lr = 1e-3
	}
	if b1 == 0 {
		b1 = 0.9
	}
	if b2 == 0 {
		b2 = 0.999
	}
	if eps == 0 {
		eps = 1e-8
	}
	if a.m == nil {
		a.m = make([][]float64, len(params))
		a.v = make([][]float64, len(params))
		for i, p := range params {
			a.m[i] = make([]float64, len(p.W))
			a.v[i] = make([]float64, len(p.W))
		}
	}
	a.t++
	a.k = adamConsts{
		inv: 1 / scale, b1: b1, ob1: 1 - b1, b2: b2, ob2: 1 - b2, lr: lr, eps: eps,
		c1: 1 - math.Pow(b1, float64(a.t)),
		c2: 1 - math.Pow(b2, float64(a.t)),
	}
}

// update applies the current step to elements [lo, hi) of parameter pi,
// p. Disjoint ranges may be updated concurrently.
func (a *Adam) update(pi int, p *Param, lo, hi int) {
	adamStep(p.W[lo:hi], p.G[lo:hi], a.m[pi][lo:hi], a.v[pi][lo:hi], &a.k)
	p.wrote()
}

// Trainer fits a network with mini-batch gradient descent, fanning samples
// within each batch across a fixed-size worker pool of weight-sharing
// network clones. Results are deterministic for a fixed Seed and Workers.
type Trainer struct {
	// Epochs is the maximum number of passes (paper: 200).
	Epochs int
	// BatchSize is the mini-batch size (paper: 100). The optimizer is
	// Adam with its defaults (lr 1e-3).
	BatchSize int
	// Seed drives shuffling and dropout.
	Seed int64
	// Workers is the data-parallel width; 0 means GOMAXPROCS.
	Workers int
	// EarlyStopLoss stops training once the epoch mean loss stays below
	// this value for Patience consecutive epochs. 0 disables.
	EarlyStopLoss float64
	// Patience is the consecutive-epoch requirement for early stopping;
	// 0 means 3.
	Patience int
	// Verbose, when non-nil, receives one progress line per epoch.
	Verbose io.Writer
	// ClassWeights, when non-nil, scales each sample's loss and gradient
	// by ClassWeights[label] — the standard lever for the class
	// imbalance the paper's §IV-C1 discusses (89% malware vs 11%
	// benign). Must have one entry per class.
	ClassWeights []float64
	// Augment, when non-nil, may replace a training sample just before
	// it is processed (Madry-style online adversarial training). It
	// receives a scratch network view (weights shared with the model
	// being trained, private caches and gradients — safe for crafting),
	// the sample's dataset index, and the sample; returning nil keeps
	// the original. It must be safe for concurrent calls on distinct
	// scratch networks.
	Augment func(scratch *Network, idx int, x []float64, label int) []float64
}

// reduceChunkSize bounds how many gradient elements one reduction work
// item covers. ~8k float64s (64KiB) is large enough that per-item pool
// overhead vanishes against the adds, and small enough that the paper
// CNN's dominant fc1 tensor (368×512 = 188416 elements) still splits
// into 23 chunks that spread across workers.
const reduceChunkSize = 8192

// gradChunk addresses a contiguous element range [lo, hi) of parameter
// tensor pi. Chunks partition the (param, element) space disjointly, so
// any scheduling of chunks over workers produces the same bits.
type gradChunk struct {
	pi, lo, hi int
}

// GradReducer folds per-clone gradient accumulators into the master
// parameters. Reduce splits every tensor into fixed element ranges
// and, within each range, combines clones with a pairwise
// tree in worker-index order — clone w+stride folds into clone w at
// doubling strides, then clone 0's total is written to the master and
// every consumed accumulator is zeroed in the same pass. The combine
// order depends only on worker indices and the element ranges are
// disjoint, so the result is byte-identical no matter how the pool
// schedules chunks; the fused zeroing means neither the clones nor the
// master need a separate zeroing pass between batches. Clone parameter
// slices are resolved once at construction.
type GradReducer struct {
	params []*Param
	cp     [][]*Param
	chunks []gradChunk
}

// NewGradReducer prepares a reducer for net and its shared-weight
// training clones. All clone gradient accumulators must be zero before
// the first Reduce (freshly cloned views satisfy this).
func NewGradReducer(net *Network, clones []*Network) *GradReducer {
	r := &GradReducer{params: net.Params()}
	r.cp = make([][]*Param, len(clones))
	for w, c := range clones {
		r.cp[w] = c.Params()
	}
	for pi, p := range r.params {
		for lo := 0; lo < len(p.G); lo += reduceChunkSize {
			r.chunks = append(r.chunks, gradChunk{pi, lo, min(lo+reduceChunkSize, len(p.G))})
		}
	}
	return r
}

// Reduce folds all clone gradients into the master parameters (the
// master accumulators are overwritten, not added to) and zeroes every
// clone accumulator, fanning chunks across up to workers pool workers.
// With a single clone it folds inline to skip goroutine spawn.
func (r *GradReducer) Reduce(ctx context.Context, workers int) error {
	return r.each(ctx, workers, r.fold)
}

// reduceStep is Reduce followed by a.Step(params, scale), in one pass:
// each chunk is folded and then stepped by the same pool worker while it
// is in that core's cache. Chunks are disjoint, so the result is Reduce
// then Step's, bit for bit.
func (r *GradReducer) reduceStep(ctx context.Context, workers int, a *Adam, scale float64) error {
	a.begin(r.params, scale)
	return r.each(ctx, workers, func(c gradChunk) {
		r.fold(c)
		a.update(c.pi, r.params[c.pi], c.lo, c.hi)
	})
}

// each runs f on every chunk, inline for a single clone or worker and
// fanned across the pool otherwise.
func (r *GradReducer) each(ctx context.Context, workers int, f func(gradChunk)) error {
	if len(r.cp) == 1 || workers == 1 {
		for _, c := range r.chunks {
			f(c)
		}
		return nil
	}
	return pool.Run(ctx, len(r.chunks), pool.Options{Workers: workers},
		func(_ context.Context, _, k int) error {
			f(r.chunks[k])
			return nil
		})
}

// fold combines one chunk across all clones: pairwise tree in
// worker-index order, then clone 0's segment moves to the master. Each
// source segment is zeroed as it is consumed, so after the fold every
// clone is ready for the next batch without a separate zeroing pass.
func (r *GradReducer) fold(c gradChunk) {
	w := len(r.cp)
	for stride := 1; stride < w; stride *= 2 {
		for a := 0; a+stride < w; a += 2 * stride {
			dst := r.cp[a][c.pi].G[c.lo:c.hi]
			src := r.cp[a+stride][c.pi].G[c.lo:c.hi]
			for j := range dst {
				dst[j] += src[j]
				src[j] = 0
			}
		}
	}
	g := r.params[c.pi].G[c.lo:c.hi]
	root := r.cp[0][c.pi].G[c.lo:c.hi]
	for j := range g {
		g[j] = root[j]
		root[j] = 0
	}
}

// History records per-epoch training statistics.
type History struct {
	Loss     []float64
	Accuracy []float64
	Stopped  int // epoch at which early stopping triggered; 0 if none
}

// FitCtx trains net on (X, y), checking ctx between batches so long runs
// can be cancelled or time-boxed; on cancellation it returns the partial
// history alongside the context's error. Each batch fans out on the
// shared worker pool with a strided worker→sample binding — worker w
// trains rows w, w+Workers, … of the batch, batch-major (trainShare) —
// so results are byte-identical for a fixed Seed and Workers regardless
// of scheduling. A panic inside a layer (a poisoned feature vector) is
// captured by the pool and returned as an error instead of crashing the
// process.
func (t *Trainer) FitCtx(ctx context.Context, net *Network, x [][]float64, y []int) (*History, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("%w: %d samples, %d labels", ErrNoTrainData, len(x), len(y))
	}
	for i, label := range y {
		if label < 0 || label >= net.NumClasses() {
			return nil, fmt.Errorf("%w: sample %d has label %d", ErrLabelRange, i, label)
		}
	}
	if t.ClassWeights != nil && len(t.ClassWeights) < net.NumClasses() {
		return nil, fmt.Errorf("nn: %d class weights for %d classes",
			len(t.ClassWeights), net.NumClasses())
	}
	epochs := t.Epochs
	if epochs <= 0 {
		epochs = 200
	}
	batch := t.BatchSize
	if batch <= 0 {
		batch = 100
	}
	workers := t.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > batch {
		workers = batch
	}
	patience := t.Patience
	if patience <= 0 {
		patience = 3
	}

	rng := rand.New(rand.NewSource(t.Seed))
	// One shared-weight view per worker, each executed through its
	// zero-allocation workspace: parameter gradients accumulate into the
	// view's private Param.G, and each workspace's dropout streams derive
	// from a per-worker seed, so training is byte-identical for a fixed
	// Seed and Workers.
	clones := make([]*Network, workers)
	wss := make([]*Workspace, workers)
	var scratch []*Network
	if t.Augment != nil {
		scratch = make([]*Network, workers)
	}
	for w := range clones {
		clones[w] = net.CloneShared()
		wss[w] = clones[w].WS()
		wss[w].Reseed(t.Seed + int64(w+1)*104729)
		if scratch != nil {
			// A separate view per worker so crafting cannot clobber the
			// gradient accumulation in the training clone.
			scratch[w] = net.CloneShared()
		}
	}
	red := NewGradReducer(net, clones)
	opt := &Adam{}
	losses := make([]float64, workers)
	hits := make([]int, workers)
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}

	hist := &History{}
	calm := 0
	for epoch := 1; epoch <= epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		var correct int
		for start := 0; start < len(idx); start += batch {
			chunk := idx[start:min(start+batch, len(idx))]
			clear(losses)
			clear(hits)
			err := pool.Run(ctx, min(workers, len(chunk)), pool.Options{Workers: workers, Strided: true},
				func(_ context.Context, _, w int) error {
					var sc *Network
					if scratch != nil {
						sc = scratch[w]
					}
					losses[w], hits[w] = t.trainShare(wss[w], sc, x, y, chunk, w, workers)
					return nil
				})
			if err != nil {
				return hist, fmt.Errorf("nn: epoch %d: %w", epoch, err)
			}
			// Fold the clone gradients into the master parameters in a
			// fixed order for determinism — the chunked pairwise tree,
			// with fused zeroing — and take the Adam step on each chunk
			// as it is folded, parallel over the pool.
			if err := red.reduceStep(ctx, workers, opt, float64(len(chunk))); err != nil {
				return hist, fmt.Errorf("nn: epoch %d: reduce: %w", epoch, err)
			}
			for w := 0; w < workers; w++ {
				epochLoss += losses[w]
				correct += hits[w]
			}
		}
		meanLoss := epochLoss / float64(len(x))
		acc := float64(correct) / float64(len(x))
		hist.Loss = append(hist.Loss, meanLoss)
		hist.Accuracy = append(hist.Accuracy, acc)
		if t.Verbose != nil {
			fmt.Fprintf(t.Verbose, "epoch %3d/%d loss=%.5f acc=%.4f\n", epoch, epochs, meanLoss, acc)
		}
		if t.EarlyStopLoss > 0 && meanLoss < t.EarlyStopLoss {
			calm++
			if calm >= patience {
				hist.Stopped = epoch
				break
			}
		} else {
			calm = 0
		}
	}
	return hist, nil
}

// trainShare is worker w's part of one mini-batch: rows chunk[w],
// chunk[w+workers], … in sub-batches of trainSub. Each row of a
// sub-batch is augmented (when Augment is set) and loaded in order, then
// the sub-batch takes one batch-major training pass on ws. It returns the
// rows' summed loss, added in row order, and their hit count.
func (t *Trainer) trainShare(ws *Workspace, scratch *Network, x [][]float64, y []int, chunk []int, w, workers int) (loss float64, hits int) {
	bp := ws.plan(trainSub, planTrain)
	for k := w; k < len(chunk); {
		n := 0
		for ; n < trainSub && k < len(chunk); k += workers {
			i := chunk[k]
			xi := x[i]
			if t.Augment != nil {
				if ax := t.Augment(scratch, i, xi, y[i]); ax != nil {
					xi = ax
				}
			}
			weight := 1.0
			if t.ClassWeights != nil {
				weight = t.ClassWeights[y[i]]
			}
			bp.load(n, xi)
			bp.labels[n], bp.weights[n] = y[i], weight
			n++
		}
		ws.trainRows(bp, n)
		for r := 0; r < n; r++ {
			loss += bp.loss[r]
			if bp.hit[r] {
				hits++
			}
		}
	}
	return loss, hits
}
