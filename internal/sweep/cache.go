package sweep

import (
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/backend"
	"repro/internal/isa"
)

// cacheVersion invalidates every cached point when the metrics schema or the
// key derivation changes. v2: input arrays are length-framed with
// fixed-width words, and the symbol count frames the input section — see
// cacheKey.
const cacheVersion = "sweep-v2"

// cacheKey derives the content hash of a sweep point: the encoded compiled
// program (covering the kernel source and the compiler), the generated input
// arrays, and every machine-configuration coordinate. Identical keys are
// guaranteed identical simulations, so a change to a kernel, the compiler,
// the workload generator or the configuration re-measures exactly the points
// it touches.
//
// It is the composition of keyPrefix, which absorbs everything the chip does
// not change, and finishKey, which appends the chip. The engine remembers the
// prefix per (kernel, n, seed) and pays only for the second (see frontEnd).
func cacheKey(prog *isa.Program, in backend.Inputs, p Point) string {
	return finishKey(keyPrefix(prog, in), p)
}

// keyPrefix hashes the version, the program and the inputs, and returns the
// SHA-256 state at that point (crypto/sha256's encoding.BinaryMarshaler).
//
// Every variable-length field is framed by its length so the encoding is
// injective: symbol names via put, each input array by its element count
// with fixed-width (16-hex-digit) words, and the input section by its symbol
// count. The v1 encoding wrote arrays as bare variable-width words with no
// length frame, leaving empty arrays contributing nothing and word
// boundaries resting on the "%x," formatting alone; TestCacheKeyFraming pins
// the near-miss input pairs that must hash apart.
func keyPrefix(prog *isa.Program, in backend.Inputs) []byte {
	h := sha256.New()
	put := func(s string) {
		fmt.Fprintf(h, "%d:%s;", len(s), s)
	}
	put(cacheVersion)
	put(string(prog.Encode()))
	syms := make([]string, 0, len(in))
	for sym := range in {
		syms = append(syms, sym)
	}
	sort.Strings(syms)
	fmt.Fprintf(h, "syms=%d;", len(syms))
	for _, sym := range syms {
		put(sym)
		fmt.Fprintf(h, "%d:", len(in[sym]))
		for _, w := range in[sym] {
			fmt.Fprintf(h, "%016x,", w)
		}
		fmt.Fprintf(h, ";")
	}
	state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic(err) // crypto/sha256 never fails to marshal
	}
	return state
}

// finishKey resumes the hash from a keyPrefix state, appends the point's
// machine-configuration coordinates and returns the key. The bytes SHA-256
// sees are the ones the unsplit derivation fed it, so sweep-v2 keys did not
// move (TestKeysDoNotMove).
func finishKey(prefix []byte, p Point) string {
	h := sha256.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(prefix); err != nil {
		panic(err) // prefix is not a keyPrefix state
	}
	fmt.Fprintf(h, "cores=%d;topo=%s;shortcut=%v;cap=%d;seed=%d;",
		p.Cores, p.Topology, p.Shortcut, p.MaxSections, p.Seed)
	return hex.EncodeToString(h.Sum(nil))
}

// Cache is a persistent content-keyed store of sweep metrics: one JSON file
// per key under a directory, written atomically (temp file + rename), so
// concurrent workers and separate processes can share it safely.
type Cache struct {
	dir string
}

// NewCache opens (creating if needed) a cache rooted at dir.
func NewCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// ValidKey reports whether key has the shape cacheKey gives every key, 64
// lowercase hex digits: only such a key names a file inside the cache. Keys
// can come from another process (a fabric report), and "../x" would not.
func ValidKey(key string) bool {
	return len(key) == 2*sha256.Size && strings.Trim(key, "0123456789abcdef") == ""
}

// Get returns the metrics stored under key, if any. Unreadable or corrupt
// entries count as misses, and so does valid JSON that is not an entry
// ("null", "{}"): no run retires zero instructions in zero cycles. The
// re-measurement's Put overwrites the file. A key that is not ValidKey misses.
func (c *Cache) Get(key string) (*Metrics, bool) {
	if c == nil || !ValidKey(key) {
		return nil, false
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	var m Metrics
	if err := json.Unmarshal(data, &m); err != nil || m.Cycles <= 0 || m.Instructions <= 0 {
		return nil, false
	}
	return &m, true
}

// Put stores the metrics under key, which must be ValidKey.
func (c *Cache) Put(key string, m *Metrics) error {
	if c == nil {
		return nil
	}
	if !ValidKey(key) {
		return fmt.Errorf("sweep: cache: key %q is not a cache key", key)
	}
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, "put-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), c.path(key))
}

// Len counts the stored entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".json" {
			n++
		}
	}
	return n
}
