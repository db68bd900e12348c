//go:build !race

package pbbs

const raceEnabled = false
