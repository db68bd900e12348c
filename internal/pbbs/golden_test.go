package pbbs

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/minic"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden mini-C files under testdata/golden, the program digests of testdata/programs.sha256 and the reference checksums of testdata/references.txt")

// goldenName is the golden file for one kernel at one dataset size. Two
// kernels share the "deterministicHash" short name; the ID prefix keeps the
// files distinct.
func goldenName(k *Kernel, n int) string {
	short := k.Name
	if i := strings.IndexByte(short, '/'); i >= 0 {
		short = short[i+1:]
	}
	return filepath.Join("testdata", "golden", fmt.Sprintf("%02d-%s-n%d.c", k.ID, short, n))
}

// canonical returns the canonical (minic.Format) rendering of the kernel's
// source at n. Hand-written templates are free-form mini-C, so they are
// normalised through Parse∘Format; lowered kernels emit canonical text
// directly, which the fixpoint check below pins.
func canonical(t *testing.T, k *Kernel, n int) string {
	t.Helper()
	src, err := k.Source(n)
	if err != nil {
		t.Fatalf("%s: Source(%d): %v", k.Name, n, err)
	}
	prog, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("%s: parsing Source(%d): %v", k.Name, n, err)
	}
	canon := minic.Format(prog)
	if k.Lang == LangGo && canon != src {
		t.Errorf("%s: lowered source at n=%d is not Format-canonical", k.Name, n)
	}
	return canon
}

// TestGoldenSources pins every registered kernel's generated mini-C, in
// canonical form, at n=MinN and n=64. The files were generated from the
// hand-written templates before the quickSort/dedup/radixSort migration to
// annotated Go, so a diff here means the compiled program changed — which
// would silently re-key the sweep cache and move benchmark/expected.json's
// counts. A file under testdata/golden that no kernel generates is stale and
// fails it too. Run with -update to rewrite them deliberately (and remove the
// stale ones).
func TestGoldenSources(t *testing.T) {
	generated := map[string]bool{}
	for _, k := range Kernels() {
		for _, n := range []int{k.MinN, 64} {
			path := goldenName(k, n)
			generated[path] = true
			got := canonical(t, k, n)
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatalf("writing %s: %v", path, err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%s: %v (run with -update to create)", k.Name, err)
			}
			if got != string(want) {
				t.Errorf("%s at n=%d: generated mini-C drifted from %s\n--- golden\n%s\n--- generated\n%s",
					k.Name, n, path, want, got)
			}
		}
	}
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		switch {
		case generated[path]:
		case *updateGolden:
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		default:
			t.Errorf("%s: no kernel generates it (run with -update to remove it)", path)
		}
	}
}
