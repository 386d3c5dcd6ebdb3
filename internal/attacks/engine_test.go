package attacks

import (
	"context"
	"math"
	"testing"

	"advmal/internal/nn"
	"advmal/internal/pool"
)

// freshEngine runs a workspace's arithmetic under the opposite slice
// contract: every slice it returns, every Jacobian row included, is a
// copy no later call overwrites. An attack that reads a result after its
// next engine call sees the workspace overwrite it, and crafts
// differently on the two engines.
type freshEngine struct{ ws *nn.Workspace }

func (f freshEngine) NumClasses() int { return f.ws.NumClasses() }

func (f freshEngine) Logits(x []float64) []float64 { return cloneVec(f.ws.Logits(x)) }

func (f freshEngine) Probs(x []float64) []float64 { return cloneVec(f.ws.Probs(x)) }

func (f freshEngine) Predict(x []float64) int { return f.ws.Predict(x) }

func (f freshEngine) LossGrad(x []float64, label int) (float64, []float64) {
	loss, g := f.ws.LossGrad(x, label)
	return loss, cloneVec(g)
}

func (f freshEngine) Jacobian(x []float64) ([]float64, [][]float64) {
	logits, jac := f.ws.Jacobian(x)
	rows := make([][]float64, len(jac))
	for k := range jac {
		rows[k] = cloneVec(jac[k])
	}
	return cloneVec(logits), rows
}

func (f freshEngine) InputGrad(dLogits []float64) []float64 {
	return cloneVec(f.ws.InputGrad(dLogits))
}

var _ nn.Engine = freshEngine{}

// TestAttacksOracleWorkspaceIdentical pins every attack's output crafted
// through the bare workspace to the output crafted through freshEngine,
// bitwise. The attacks are deterministic and both engines run the same
// arithmetic, so a divergence is an attack holding a workspace slice
// across an engine call.
func TestAttacksOracleWorkspaceIdentical(t *testing.T) {
	net, x, y := trainedModel(t)
	fresh := freshEngine{net.CloneShared().WS()}
	ws := net.CloneShared().WS()
	for _, atk := range All() {
		atk := atk
		t.Run(atk.Name(), func(t *testing.T) {
			for _, i := range []int{0, 1, 7, 20} {
				advO := atk.Craft(fresh, x[i], y[i])
				advW := atk.Craft(ws, x[i], y[i])
				if len(advO) != len(advW) {
					t.Fatalf("sample %d: lengths %d vs %d", i, len(advO), len(advW))
				}
				for j := range advO {
					if math.Float64bits(advO[j]) != math.Float64bits(advW[j]) {
						t.Fatalf("sample %d feature %d: fresh %v workspace %v",
							i, j, advO[j], advW[j])
					}
				}
			}
		})
	}
}

// TestEligibleEngines checks Eligible agrees between the two engines.
func TestEligibleEngines(t *testing.T) {
	net, x, y := trainedModel(t)
	o := Eligible(freshEngine{net.CloneShared().WS()}, x, y, 0)
	w := Eligible(net.CloneShared().WS(), x, y, 0)
	if len(o) != len(w) {
		t.Fatalf("eligible counts differ: fresh %d workspace %d", len(o), len(w))
	}
	for i := range o {
		if o[i] != w[i] {
			t.Fatalf("eligible index %d: fresh %d workspace %d", i, o[i], w[i])
		}
	}
}

// TestWorkspacePerWorkerRace fans attack crafting across the shared pool
// with one workspace per worker — the deployment shape every harness
// uses — and relies on the -race runs in `make check` to flag any shared
// mutable state between workspaces (the weights are shared read-only;
// everything mutable must be per-workspace).
func TestWorkspacePerWorkerRace(t *testing.T) {
	net, x, y := trainedModel(t)
	const workers = 4
	wss := make([]*nn.Workspace, workers)
	for w := range wss {
		wss[w] = net.CloneShared().WS()
	}
	atk := NewPGD(0, 10)
	preds := make([]int, len(x))
	err := pool.Run(context.Background(), len(x), pool.Options{Workers: workers},
		func(_ context.Context, w, i int) error {
			adv := atk.Craft(wss[w], x[i], y[i])
			preds[i] = wss[w].Predict(adv)
			return nil
		})
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	// Sanity: results must match a serial run on a single workspace.
	serial := net.CloneShared().WS()
	for i := range x {
		adv := atk.Craft(serial, x[i], y[i])
		if p := serial.Predict(adv); p != preds[i] {
			t.Fatalf("sample %d: parallel pred %d, serial pred %d", i, preds[i], p)
		}
	}
}
