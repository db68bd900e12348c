package gofront

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Body-less function declarations are legal Go (assembly stubs are written
// that way) and once dereferenced a nil body in Scan. Both are also corpus
// files of FuzzScan.
const (
	bodilessEntry  = "package k\n//repro:kernel id=1 name=x\nfunc f() uint64\n"
	bodilessHelper = "package k\n//repro:kernel id=1 name=x\nfunc f() uint64 { return g() }\nfunc g() uint64\n"
)

// FuzzScan feeds any text to Scan as a kernel file. The contract: an error
// that names a position in the file, or a kernel that lowers at n = 1 and
// n = 16 without a panic (an error there is an answer too). Seeded from the
// annotated kernels of internal/pbbs.
func FuzzScan(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "pbbs", "kernels", "*.go"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no kernel files to seed from (%v)", err)
	}
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		k, err := Scan("k.go", src)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "gofront: k.go:") {
				t.Fatalf("error without a position: %v", err)
			}
			return
		}
		for _, n := range []int{1, 16} {
			k.Source(n)
		}
	})
}
