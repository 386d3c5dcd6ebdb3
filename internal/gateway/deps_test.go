package gateway

import (
	"go/build"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The gateway is a proxy: cmd/gateway links nothing of the detector. Its
// transitive non-test imports within the module are exactly this set.
func TestGatewayImportsNoDetector(t *testing.T) {
	want := []string{"advmal/cmd/gateway", "advmal/internal/gateway", "advmal/internal/metrics", "advmal/internal/wire"}
	seen := map[string]bool{}
	var walk func(path string)
	walk = func(path string) {
		if seen[path] || !strings.HasPrefix(path, "advmal/") {
			return
		}
		seen[path] = true
		pkg, err := build.Import(path, ".", 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range pkg.Imports {
			walk(imp)
		}
	}
	walk("advmal/cmd/gateway")
	got := make([]string, 0, len(seen))
	for p := range seen {
		got = append(got, p)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cmd/gateway links %v, want exactly %v", got, want)
	}
}
