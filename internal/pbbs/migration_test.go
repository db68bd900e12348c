package pbbs

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/minic"
)

// This file retains, verbatim, the hand-written artifacts of the three
// kernels migrated to annotated Go (internal/pbbs/kernels/): the mini-C
// fmt.Sprintf templates, the input generators, and the pure-Go reference
// checksums they shipped with through PR 7. The tests pin the migration
// four ways at every probed n:
//
//  1. the gofront lowering renders byte-identically to the canonicalised
//     legacy template (so the canonical surface is provably unchanged),
//  2. the compiled programs are byte-identical (prog.Encode is what the
//     sweep-v2 cache key hashes, so cache keys cannot have moved),
//  3. the derived generators reproduce the legacy inputs bit for bit, and
//  4. the interpreter-derived checksum equals the independent legacy
//     reference (sort/map-based — an algorithmically different witness).

func legacyQuicksortSource(n int) string {
	return fmt.Sprintf(`
unsigned long a[%d];
void qs(long lo, long hi) {
    if (lo >= hi) return;
    unsigned long p = a[hi];
    long i = lo;
    for (long j = lo; j < hi; j = j + 1) {
        if (a[j] < p) {
            unsigned long t = a[i]; a[i] = a[j]; a[j] = t;
            i = i + 1;
        }
    }
    unsigned long t = a[i]; a[i] = a[hi]; a[hi] = t;
    qs(lo, i - 1);
    qs(i + 1, hi);
}
unsigned long main(void) {
    qs(0, %d);
    unsigned long s = 0;
    for (long i = 0; i < %d; i = i + 1) s = s * 31 + a[i];
    return s;
}`, n, n-1, n)
}

func legacyQuicksortGen(n int, seed uint64) Inputs {
	r := newRNG(seed + 2*0x9e3779b9)
	a := make([]uint64, n)
	for i := range a {
		a[i] = r.uintn(1 << 32)
	}
	return Inputs{"a": a}
}

func legacyQuicksortRef(n int, in Inputs) uint64 {
	a := slices.Clone(in["a"])
	slices.Sort(a)
	var s uint64
	for _, v := range a {
		s = mix(s, v)
	}
	return s
}

func legacyRadixsortSource(n int) string {
	return fmt.Sprintf(`
unsigned long a[%d];
unsigned long b[%d];
unsigned long cnt[256];
unsigned long main(void) {
    unsigned long n = %d;
    for (long pass = 0; pass < 4; pass = pass + 1) {
        unsigned long sh = pass * 8;
        for (long d = 0; d < 256; d = d + 1) cnt[d] = 0;
        for (unsigned long i = 0; i < n; i = i + 1) {
            unsigned long d = a[i] >> sh & 255;
            cnt[d] = cnt[d] + 1;
        }
        unsigned long run = 0;
        for (long d = 0; d < 256; d = d + 1) {
            unsigned long c = cnt[d];
            cnt[d] = run;
            run = run + c;
        }
        for (unsigned long i = 0; i < n; i = i + 1) {
            unsigned long d = a[i] >> sh & 255;
            b[cnt[d]] = a[i];
            cnt[d] = cnt[d] + 1;
        }
        for (unsigned long i = 0; i < n; i = i + 1) a[i] = b[i];
    }
    unsigned long s = 0;
    for (unsigned long i = 0; i < n; i = i + 1) s = s * 31 + a[i];
    return s;
}`, n, n, n)
}

func legacyRadixsortGen(n int, seed uint64) Inputs {
	r := newRNG(seed + 5*0x9e3779b9)
	a := make([]uint64, n)
	for i := range a {
		a[i] = r.uintn(1 << 32)
	}
	return Inputs{"a": a}
}

func legacyRadixsortRef(n int, in Inputs) uint64 {
	a := slices.Clone(in["a"])
	slices.Sort(a)
	var s uint64
	for _, v := range a {
		s = mix(s, v)
	}
	return s
}

func legacyDedupSource(n int) string {
	t, shift := hashTableSize(n)
	return fmt.Sprintf(`
unsigned long a[%d];
unsigned long tab[%d];
unsigned long main(void) {
    unsigned long n = %d;
    unsigned long cnt = 0;
    unsigned long sum = 0;
    for (unsigned long i = 0; i < n; i = i + 1) {
        unsigned long k = a[i] + 1;
        unsigned long h = k * 0x9e3779b97f4a7c15 >> %d;
        while (tab[h] != 0 && tab[h] != k) h = (h + 1) & %d;
        if (tab[h] == 0) {
            tab[h] = k;
            cnt = cnt + 1;
            sum = sum + a[i];
        }
    }
    return cnt * 0x9e3779b97f4a7c15 + sum;
}`, n, t, n, shift, t-1)
}

func legacyDedupGen(n int, seed uint64) Inputs {
	r := newRNG(seed + 10*0x9e3779b9)
	a := make([]uint64, n)
	for i := range a {
		a[i] = r.uintn(uint64(n))
	}
	return Inputs{"a": a}
}

func legacyDedupRef(n int, in Inputs) uint64 {
	seen := make(map[uint64]bool)
	var cnt, sum uint64
	for _, v := range in["a"] {
		if !seen[v] {
			seen[v] = true
			cnt++
			sum += v
		}
	}
	return cnt*0x9e3779b97f4a7c15 + sum
}

var migrated = []struct {
	id     int
	source func(int) string
	gen    func(int, uint64) Inputs
	ref    func(int, Inputs) uint64
}{
	{2, legacyQuicksortSource, legacyQuicksortGen, legacyQuicksortRef},
	{5, legacyRadixsortSource, legacyRadixsortGen, legacyRadixsortRef},
	{10, legacyDedupSource, legacyDedupGen, legacyDedupRef},
}

var migrationSizes = []int{2, 3, 5, 8, 17, 33, 64, 100}

func TestMigratedKernelsMatchLegacySources(t *testing.T) {
	for _, m := range migrated {
		k, err := ByID(m.id)
		if err != nil {
			t.Fatal(err)
		}
		if k.Lang != LangGo {
			t.Errorf("%s: Lang = %q, want %q", k.Name, k.Lang, LangGo)
		}
		for _, n := range migrationSizes {
			legacy := m.source(n)
			lprog, err := minic.Parse(legacy)
			if err != nil {
				t.Fatalf("%s: parsing legacy source at n=%d: %v", k.Name, n, err)
			}
			want := minic.Format(lprog)
			got, err := k.Source(n)
			if err != nil {
				t.Fatalf("%s: Source(%d): %v", k.Name, n, err)
			}
			if got != want {
				t.Errorf("%s at n=%d: lowered source differs from canonicalised legacy template\n--- legacy\n%s\n--- lowered\n%s",
					k.Name, n, want, got)
			}
			for _, mode := range []minic.Mode{minic.ModeCall, minic.ModeFork} {
				lp, err := minic.Compile(legacy, mode)
				if err != nil {
					t.Fatalf("%s: compiling legacy at n=%d: %v", k.Name, n, err)
				}
				np, err := k.Build(n, mode)
				if err != nil {
					t.Fatalf("%s: Build(%d): %v", k.Name, n, err)
				}
				if !bytes.Equal(lp.Encode(), np.Encode()) {
					t.Errorf("%s at n=%d mode=%v: compiled program changed (sweep cache keys would move)", k.Name, n, mode)
				}
			}
		}
	}
}

func TestMigratedKernelsMatchLegacyGenAndRef(t *testing.T) {
	const seed = 12345
	for _, m := range migrated {
		k, err := ByID(m.id)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range migrationSizes {
			legacyIn := m.gen(n, seed)
			in := k.Gen(n, seed)
			if !reflect.DeepEqual(in, legacyIn) {
				t.Errorf("%s at n=%d: derived generator diverges from the legacy inputs", k.Name, n)
				continue
			}
			want := m.ref(n, legacyIn)
			got, err := k.Ref(n, in)
			if err != nil {
				t.Fatalf("%s: Ref(%d): %v", k.Name, n, err)
			}
			if got != want {
				t.Errorf("%s at n=%d: interpreted checksum %d, legacy reference %d", k.Name, n, got, want)
			}
		}
	}
}
