package advmal_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// unlinkedAllowed lists the functions under internal/ that no command,
// example or benchmark binary links, by package-relative symbol (generic
// type parameters dropped). Each is an experiment no command runs yet, a
// reference the tests compare against, or an accessor kept for them. The
// list may only shrink: TestEveryFunctionLinked fails on an entry that is
// linked or no longer declared, so a function that becomes reachable, or
// is deleted, leaves it in the same change.
var unlinkedAllowed = map[string]bool{
	// attacks
	"attacks.EvaluateFamilies":      true,
	"attacks.Result.String":         true,
	"attacks.TrainSubstitute":       true,
	"attacks.TransferResult.String": true,
	// core
	"core.(*FamilyMetrics).HardestFamilies":     true,
	"core.(*RobustFeatureResult).String":        true,
	"core.(*System).RunAll":                     true,
	"core.(*System).RunObfuscationExperiment":   true,
	"core.(*System).RunPackingExperiment":       true,
	"core.(*System).RunRobustFeatureExperiment": true,
	"core.(*System).RunTableIV":                 true,
	"core.(*System).RunTableV":                  true,
	"core.(*System).RunTableVI":                 true,
	"core.(*System).RunTableVII":                true,
	"core.FamilyClasses":                        true,
	"core.FamilyOfClass":                        true,
	"core.ObfuscationRow.String":                true,
	"core.PackingResult.String":                 true,
	"core.maskVectors":                          true,
	// dataset
	"dataset.(*Dataset).Labels": true,
	"dataset.FromSamples":       true,
	// features
	"features.(*Scaler).TransformAll": true,
	"features.(*Validator).Clip":      true,
	"features.ExtractNaive":           true,
	"features.GroupOf":                true,
	"features.NewValidator":           true,
	"features.Vector.Clone":           true,
	// gateway
	"gateway.(*Metrics).Responses":   true,
	"gateway.(*RateLimiter).Clients": true,
	"gateway.(*Ring).Len":            true,
	"gateway.(*Ring).Owner":          true,
	// gea
	"gea.(*Pipeline).CompareExitWiring":       true,
	"gea.(*Pipeline).MinimizeTargetSize":      true,
	"gea.(*Pipeline).RealizeJSMA":             true,
	"gea.(*Pipeline).RunFixedNodesExperiment": true,
	"gea.(*Pipeline).RunSizeExperiment":       true,
	"gea.(*Pipeline).RunTarget":               true,
	"gea.(*Pipeline).classifyProgram":         true,
	"gea.AddNodesEdges":                       true,
	"gea.MergeNoSharedExit":                   true,
	"gea.Row.String":                          true,
	"gea.TruncateTarget":                      true,
	// graph
	"graph.(*Graph).BFSFrom":               true,
	"graph.(*Graph).BetweennessCentrality": true,
	"graph.(*Graph).ClosenessCentrality":   true,
	"graph.(*Graph).DegreeCentrality":      true,
	"graph.(*Graph).Equal":                 true,
	"graph.(*Graph).HasEdge":               true,
	"graph.(*Graph).In":                    true,
	"graph.(*Graph).Profile":               true,
	"graph.(*Graph).Relabel":               true,
	"graph.(*Graph).Reverse":               true,
	"graph.(*Graph).ShortestPathLengths":   true,
	"graph.RandomDirected":                 true,
	"graph.RandomFlow":                     true,
	// index
	"index.(*Exact).Add":    true,
	"index.(*Exact).Len":    true,
	"index.(*Exact).Search": true,
	"index.(*Exact).Store":  true,
	"index.(*HNSW).Config":  true,
	"index.NewExact":        true,
	// ir
	"ir.(*CFG).ExitBlocks": true,
	"ir.Block.Len":         true,
	"ir.Op.Terminates":     true,
	// nn
	"nn.(*Network).Layers":     true,
	"nn.(*Network).ZeroGrad":   true,
	"nn.(*Param).ZeroGrad":     true,
	"nn.(*Workspace).InputDim": true,
	"nn.(*Workspace).Net":      true,
	// pool
	"pool.Cancelled": true,
	// pool/faultinject
	"pool/faultinject.(*Plan).Error": true,
	"pool/faultinject.(*Plan).Fired": true,
	"pool/faultinject.(*Plan).Hang":  true,
	"pool/faultinject.(*Plan).Hook":  true,
	"pool/faultinject.(*Plan).Panic": true,
	"pool/faultinject.New":           true,
	// report
	"report.ClassRates": true,
	// serve
	"serve.(*Batcher).Submit": true,
	"serve.(*Chaos).Injected": true,
	"serve.(*Server).Batcher": true,
	"serve.(*Server).Handle":  true,
	"serve.(*Server).Metrics": true,
	// synth
	"synth.DefaultConfig":  true,
	"synth.LabeledVectors": true,
	"synth.Pack":           true,
}

// TestEveryFunctionLinked is the reachability gate: every function
// declared in a non-test file under internal/ must be linked into at
// least one binary the module ships — a command, an example or the
// benchmark — or be on unlinkedAllowed. It builds them with inlining off
// (-gcflags=all=-l), so every function a binary calls keeps its symbol,
// and reads their symbol tables with go tool nm. Like
// TestBenchmarkModuleVets it writes only to the go build cache and a
// temporary directory, and is skipped under -short.
func TestEveryFunctionLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary; skipped under -short")
	}
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(gobin); err != nil {
		t.Skipf("no go command at %s", gobin)
	}
	bin := t.TempDir()
	for _, b := range []struct {
		dir  string
		pkgs []string
	}{
		{".", []string{"./cmd/...", "./examples/..."}},
		{"benchmark", []string{"."}},
	} {
		cmd := exec.Command(gobin, append([]string{"build", "-gcflags=all=-l", "-o", bin + string(filepath.Separator)}, b.pkgs...)...)
		cmd.Dir = b.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %v in %s: %v\n%s", b.pkgs, b.dir, err, out)
		}
	}

	linked := map[string]bool{}
	binaries, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range binaries {
		out, err := exec.Command(gobin, "tool", "nm", filepath.Join(bin, e.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", e.Name(), err)
		}
		// A line is "address kind name"; a name may hold spaces, and an
		// assembly function's carries its ABI.
		for _, line := range strings.Split(string(out), "\n") {
			f := strings.SplitN(strings.TrimSpace(line), " ", 3)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				linked[dropTypeParams(strings.TrimSuffix(f[2], ".abi0"))] = true
			}
		}
	}

	declared := internalFuncs(t)
	var missing []string
	for _, sym := range declared {
		key := strings.TrimPrefix(sym, "advmal/internal/")
		if !linked[sym] && !unlinkedAllowed[key] {
			missing = append(missing, key)
		}
	}
	if len(missing) > 0 {
		t.Errorf("%d functions under internal/ are linked into no binary; delete them, move them into a _test.go file, or call them from a command:\n\t%s",
			len(missing), strings.Join(missing, "\n\t"))
	}
	isDeclared := map[string]bool{}
	for _, sym := range declared {
		isDeclared[strings.TrimPrefix(sym, "advmal/internal/")] = true
	}
	var stale []string
	for key := range unlinkedAllowed {
		if !isDeclared[key] || linked["advmal/internal/"+key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("unlinkedAllowed entries that are linked or no longer declared; remove them:\n\t%s", strings.Join(stale, "\n\t"))
	}
}

// internalFuncs returns the symbol name of every function and method
// declared in a non-test file under internal/ that this platform
// builds: import path, then "(*T)." or "T." for a method, then the name.
func internalFuncs(t *testing.T) []string {
	t.Helper()
	var syms []string
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		path := "advmal/" + filepath.ToSlash(dir)
		for _, name := range pkg.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				syms = append(syms, path+"."+recvPrefix(fd)+fd.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(syms)
	return syms
}

// recvPrefix is "(*T)." or "T." for a method on T, "" for a function.
func recvPrefix(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return ""
	}
	typ, star := fd.Recv.List[0].Type, false
	if s, ok := typ.(*ast.StarExpr); ok {
		typ, star = s.X, true
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	name := typ.(*ast.Ident).Name
	if star {
		return "(*" + name + ")."
	}
	return name + "."
}

// dropTypeParams removes every bracketed type-argument list from a
// symbol, so an instantiation such as (*Cache[go.shape.string]).Get
// matches its declaration (*Cache).Get.
func dropTypeParams(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}
