package machine

// What the external test package (oracle_test.go, which has to live outside
// the package to import internal/pbbs) needs of the unexported test hooks.

// Traced and RunRows are the in-package tests' collector-attached run
// (sched_test.go).
type Traced = traced

var RunRows = runRows

// Poison makes m's next run overwrite every instruction it retires with absurd
// values and never reuse it (Machine.poison); bind and Reset clear it.
func Poison(m *Machine) { m.poison = true }

// RelabelEveryFork makes every fork of m's next run relabel the whole section
// order (Machine.relabelAll); bind and Reset clear it.
func RelabelEveryFork(m *Machine) { m.relabelAll = true }

// Visits returns how many core visits the idle-skip scheduler has made since
// m was built, bound or Reset.
func Visits(m *Machine) int64 { return m.visits }

// DynChunk is the instruction arena's growth step.
const DynChunk = dynChunk

// DynStats returns how many DynInsts the last run took from the arena and
// the most it ever had in flight (fetched and not retired).
func DynStats(m *Machine) (allocated, peakInFlight int) {
	return m.dyns.allocated(), m.peakInFlight
}

// SectionStats returns how many section shells m holds — after a run on a
// fresh machine, how many it allocated — and how many of them are on its free
// list rather than in the section order.
func SectionStats(m *Machine) (held, free int) {
	return len(m.secFree) + m.undumped(), len(m.secFree)
}

// CellStats returns how many cells the last run took from the arena — the
// most that were named at once, since a freed cell is handed out again first
// — and how many are still named.
func CellStats(m *Machine) (allocated, named int) {
	for _, n := range m.names[1:] {
		if n > 0 {
			named++
		}
	}
	return len(m.cells) - 1, named
}
