package advmal_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// TestBenchmarkModuleVets type-checks and vets the nested benchmark
// module, which `go test ./...` here does not see: a change that breaks
// what benchmark/ uses of this module fails this test instead of the
// next benchmark run. It writes only to the go build cache.
func TestBenchmarkModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("vets a second module; skipped under -short")
	}
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(gobin); err != nil {
		t.Skipf("no go command at %s", gobin)
	}
	cmd := exec.Command(gobin, "vet", "./...")
	cmd.Dir = "benchmark"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmark/: %v\n%s", err, out)
	}
}
