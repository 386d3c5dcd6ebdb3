package advmal_test

import (
	"go/build"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestImportBoundaries pins which module packages a root package may
// link. Each row names a root and either the exact set of module
// packages its transitive non-test imports reach (root included), or
// packages that set must not contain.
func TestImportBoundaries(t *testing.T) {
	rows := []struct {
		root    string
		exactly []string
		never   []string
	}{
		// The gateway is a proxy: it links nothing of the detector.
		{root: "cmd/gateway", exactly: []string{"cmd/gateway", "internal/gateway", "internal/metrics", "internal/wire"}},
		// A replica is a server: retraining runs out of process, in
		// cmd/retrain against serve -admin.
		{root: "cmd/serve", never: []string{"internal/lifecycle"}},
		// The retraining lifecycle is offline: it swaps a core.Handle and
		// needs nothing of the HTTP front end.
		{root: "internal/lifecycle", never: []string{"internal/serve"}},
	}
	for _, row := range rows {
		t.Run(row.root, func(t *testing.T) {
			got := moduleDeps(t, row.root)
			if row.exactly != nil {
				want := append([]string(nil), row.exactly...)
				sort.Strings(want)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s links %v, want exactly %v", row.root, got, want)
				}
			}
			for _, bad := range row.never {
				if i := sort.SearchStrings(got, bad); i < len(got) && got[i] == bad {
					t.Errorf("%s links %s; it must not", row.root, bad)
				}
			}
		})
	}
}

// moduleDeps returns, sorted and relative to the module path, every
// module package that root's non-test imports reach, root included.
func moduleDeps(t *testing.T, root string) []string {
	t.Helper()
	const module = "advmal/"
	seen := map[string]bool{}
	var walk func(path string)
	walk = func(path string) {
		if seen[path] || !strings.HasPrefix(path, module) {
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
	walk(module + root)
	got := make([]string, 0, len(seen))
	for p := range seen {
		got = append(got, strings.TrimPrefix(p, module))
	}
	sort.Strings(got)
	return got
}
