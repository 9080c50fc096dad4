package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestEveryInternalPackageHasALayer fails when a package is added under
// internal/ without an entry in layerPackages, which would fold its CPU
// time into "other".
func TestEveryInternalPackageHasALayer(t *testing.T) {
	root := filepath.Join("..", "internal")
	seen := 0
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		files, _ := filepath.Glob(filepath.Join(path, "*.go"))
		code := false
		for _, f := range files {
			code = code || !strings.HasSuffix(f, "_test.go")
		}
		if !code {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		pkg := "tquad/internal/" + filepath.ToSlash(rel)
		seen++
		if l := packageLayer(pkg); l == "other" || l == "" {
			t.Errorf("package %s has no layer", pkg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen < 20 {
		t.Fatalf("found only %d packages under %s", seen, root)
	}
}

func TestStackLayer(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"tquad/internal/vm.(*Machine).runBlock", "tquad/internal/study.(*Study).run"}, "vm"},
		{[]string{"runtime.mallocgc", "tquad/internal/shadow.(*Owners).SetRange", "tquad/internal/quad.(*Tool).trace"}, "quad"},
		{[]string{"crypto/sha256.block", "tquad/internal/jobd.(*ArtifactStore).PutBytes"}, "jobd"},
		{[]string{"tquad/internal/obs/live.(*Tracker).Emit"}, "jobd"},
		{[]string{"net/http.(*conn).serve", "tquad/bench.(*daemonJobs).op"}, "bench"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"internal/runtime/syscall.Syscall6", "runtime.goexit"}, "runtime"},
		{[]string{"syscall.Syscall", "net/http.(*conn).serve"}, "other"},
		{[]string{"tquad/internal/newpkg.F"}, "other"},
	}
	for _, c := range cases {
		if got := stackLayer(c.stack); got != c.want {
			t.Errorf("stackLayer(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// spin burns CPU in this package so a profile has samples to fold.
func spin(d time.Duration) uint64 {
	var x uint64
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestFoldCPUAttributesSamples(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	layers, err := FoldCPU(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range layers {
		total += v
	}
	if total == 0 {
		t.Fatal("no samples folded")
	}
	if share := layers["bench"] / total; share < 0.5 {
		t.Errorf("bench share %.2f of %.3fs sampled, want most of it: %v", share, total, layers)
	}
}

func TestFoldCPURejectsGarbage(t *testing.T) {
	if _, err := FoldCPU(strings.NewReader("not a profile")); err == nil {
		t.Fatal("garbage folded without error")
	}
}
