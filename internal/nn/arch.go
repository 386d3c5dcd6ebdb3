package nn

import (
	"math/rand"
)

// Architecture constants from the paper (§IV-B1, Fig. 5).
const (
	// PaperInputLen is the feature-vector length (1 x 23).
	PaperInputLen = 23
	// PaperClasses is benign vs malicious.
	PaperClasses = 2
	// PaperFlattenLen is the flattened size after ConvB2 (92 x 4 = 368).
	PaperFlattenLen = 368
)

// PaperCNN builds the paper's exact detection architecture (Fig. 5):
//
//	ConvB1: Conv1D(46, 1x3, same) + ReLU -> Conv1D(46, 1x3, valid) + ReLU
//	        -> MaxPool(2,2) -> Dropout(0.25)          => 46 x 10
//	ConvB2: Conv1D(92, 1x3, same) + ReLU -> Conv1D(92, 1x3, valid) + ReLU
//	        -> MaxPool(2,2) -> Dropout(0.25)          => 92 x 4
//	CB:     Flatten(368) -> Dense(512) + ReLU -> Dropout(0.5) -> Dense(2)
//
// Softmax is applied by the loss / Probs, so Forward returns logits.
// Weights are He-initialized deterministically from seed.
func PaperCNN(seed int64) *Network {
	return PaperCNNClasses(seed, PaperClasses)
}

// PaperCNNClasses is PaperCNN with an arbitrary number of output logits,
// used for the family-level multi-class classification the paper's
// introduction describes.
func PaperCNNClasses(seed int64, classes int) *Network {
	rng := rand.New(rand.NewSource(seed))
	return NewNetwork([]int{1, PaperInputLen}, classes,
		NewConv1D("conv1", 1, 46, 3, true, rng),
		NewReLU("relu1"),
		NewConv1D("conv2", 46, 46, 3, false, rng),
		NewReLU("relu2"),
		NewMaxPool1D("pool1", 2),
		NewDropout("drop1", 0.25),
		NewConv1D("conv3", 46, 92, 3, true, rng),
		NewReLU("relu3"),
		NewConv1D("conv4", 92, 92, 3, false, rng),
		NewReLU("relu4"),
		NewMaxPool1D("pool2", 2),
		NewDropout("drop2", 0.25),
		NewFlatten("flatten"),
		NewDense("fc1", PaperFlattenLen, 512, rng),
		NewReLU("relu5"),
		NewDropout("drop3", 0.5),
		NewDense("logits", 512, classes, rng),
	)
}

// SmallMLP builds a small fully connected network for tests and quick
// examples: in -> hidden (ReLU) -> classes.
func SmallMLP(seed int64, in, hidden, classes int) *Network {
	rng := rand.New(rand.NewSource(seed))
	return NewNetwork([]int{in}, classes,
		NewDense("fc1", in, hidden, rng),
		NewReLU("relu1"),
		NewDense("fc2", hidden, classes, rng),
	)
}
