package nn

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestDensePackFollowsWrites pins the pack's lifecycle: a view made
// before the weights are written runs its next one-row pass on what was
// written, bit for bit as the oracle does, after each of the package's
// writers — a Trainer epoch, Adam.Step, Load and CloneInto. Each write
// must also move the probabilities, so a check never passes on weights
// that did not change.
func TestDensePackFollowsWrites(t *testing.T) {
	net := PaperCNN(61)
	ws := net.CloneShared().WS()
	x := randVec(rand.New(rand.NewSource(62)), net.InputDim())
	var last []float64
	check := func(what string) {
		t.Helper()
		got := append([]float64(nil), ws.Probs(x)...)
		bitsEqual(t, what, got, newOracle(net).Probs(x))
		if last != nil && got[0] == last[0] {
			t.Fatalf("%s: probabilities did not move", what)
		}
		last = got
	}
	check("before any write")

	xs, ys := blobs(63, 24, net.InputDim())
	tr := &Trainer{Epochs: 1, BatchSize: 8, Seed: 1, Workers: 2}
	if _, err := tr.FitCtx(context.Background(), net, xs, ys); err != nil {
		t.Fatal(err)
	}
	check("after a Trainer epoch")

	for _, p := range net.Params() {
		for j := range p.G {
			p.G[j] = 0.5
		}
	}
	(&Adam{}).Step(net.Params(), 1)
	check("after Adam.Step")

	var buf bytes.Buffer
	if err := PaperCNN(64).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := net.Load(&buf); err != nil {
		t.Fatal(err)
	}
	check("after Load")

	if err := PaperCNN(65).CloneInto(net); err != nil {
		t.Fatal(err)
	}
	check("after CloneInto")
}

// TestDensePackRace races GOMAXPROCS views, each of which has run on the
// old weights, through their first one-row pass after a Load: one builds
// the pack while the others wait for it or read the published one, and
// every view sees the loaded weights. Run it under -race.
func TestDensePackRace(t *testing.T) {
	net := PaperCNN(71)
	x := randVec(rand.New(rand.NewSource(72)), net.InputDim())
	views := make([]*Workspace, max(2, runtime.GOMAXPROCS(0)))
	for i := range views {
		views[i] = net.CloneShared().WS()
		views[i].Probs(x)
	}
	var buf bytes.Buffer
	if err := PaperCNN(73).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := net.Load(&buf); err != nil {
		t.Fatal(err)
	}
	want := newOracle(net).Probs(x)

	got := make([][]float64, len(views))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, ws := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = append([]float64(nil), ws.Probs(x)...)
		}()
	}
	close(start)
	wg.Wait()
	for i := range got {
		bitsEqual(t, fmt.Sprintf("view %d", i), got[i], want)
	}
}
