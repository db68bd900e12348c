//go:build race

package pbbs

// raceEnabled reports a -race build, where sync.Pool drops a share of what
// is put back, so pooled buffers are allocated anew and allocation counts
// mean nothing.
const raceEnabled = true
