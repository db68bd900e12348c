package machine

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/isa"
)

// InstTiming is the per-stage timing of one dynamic instruction — one row of
// a Fig. 10 table. A zero means the stage does not apply (e.g. ar/ma for a
// register-register instruction).
type InstTiming struct {
	Section int64 // section ID
	// SecPos is the section's position in the run's total section order,
	// dumped sections included: the position at the time of retirement in a
	// row handed to a sink (a later fork before the section moves it), the
	// final one in a Collector's rows.
	SecPos                  int
	Idx                     int // ordinal within the section (1-based in Label)
	IP                      int64
	In                      *isa.Instruction
	Level                   int32
	FD, RR, EW, AR, MA, RET int64
}

// Label renders the paper's "section-ordinal" instruction name (e.g. "2-13").
func (t InstTiming) Label() string { return fmt.Sprintf("%d-%d", t.SecPos, t.Idx+1) }

// Text renders the instruction. It is a method, not a precomputed field:
// formatting every dynamic instruction eagerly used to dominate Result
// construction on big runs, charged to every simulation whether or not a
// Fig. 10 table was wanted.
func (t InstTiming) Text() string { return t.In.String() }

// SetSink makes the next Run hand sink the row of every instruction the cycle
// it retires — the only moment the machine still has it: a retired
// instruction is recycled at once, and a Result carries aggregates, not rows.
// Rows arrive in retirement order, across sections. The sink is per run: bind
// and Reset clear it, so a pooled or re-run machine never calls a stale one.
// Most callers want Collector.
func (m *Machine) SetSink(sink func(InstTiming)) { m.sink = sink }

// Collector gathers the rows of one run and returns them the way the paper's
// Fig. 10 lists them. The zero value is ready; Attach it again to reuse its
// buffer for another run.
type Collector struct{ rows []InstTiming }

// Attach makes c the sink of m's next Run.
func (c *Collector) Attach(m *Machine) {
	c.rows = c.rows[:0]
	m.SetSink(func(t InstTiming) { c.rows = append(c.rows, t) })
}

// Timings returns the rows of the run that produced r in global trace order
// (section order, then ordinal), each with its section's final position. The
// slice is the collector's own buffer, rearranged.
func (c *Collector) Timings(r *Result) []InstTiming {
	// Section IDs are creation sequence numbers: 0..len-1, each once.
	start := make([]int, len(r.Sections)) // by ID: index of the section's first row
	pos := make([]int, len(r.Sections))   // by ID: final position
	n := 0
	for _, s := range r.Sections {
		start[s.ID], pos[s.ID] = n, s.Pos
		n += s.Instructions
	}
	// Every row has its own destination, so sending each displaced row to its
	// place sorts the buffer in one pass without a second one. (Rows that
	// claim one place twice — not a run's — are left where they collide.)
	dest := func(t *InstTiming) int { return start[t.Section] + t.Idx }
	for i := range c.rows {
		for j := dest(&c.rows[i]); j != i && dest(&c.rows[j]) != j; j = dest(&c.rows[i]) {
			c.rows[i], c.rows[j] = c.rows[j], c.rows[i]
		}
		c.rows[i].SecPos = pos[c.rows[i].Section]
	}
	return c.rows
}

// SectionInfo summarises one section.
type SectionInfo struct {
	ID           int64
	Pos          int // position in the final total order
	Core         int
	BaseLevel    int32
	Instructions int
	CreatedAt    int64
	FirstFetch   int64
	LastRetire   int64
}

// Result is the outcome of a machine run.
type Result struct {
	Cycles       int64
	Instructions int64
	Sections     []SectionInfo
	Cores        int
	// FetchDone is the cycle the last instruction was fetched; the paper's
	// "the code is fetched in 30 cycles" for sum(t,5).
	FetchDone int64
	// RetireDone is the cycle the last instruction retired; the paper's
	// retirement time (43 for sum(t,5)).
	RetireDone int64
	// RAX is the conventional program result.
	RAX uint64
	// Regs is the final committed architectural register file.
	Regs [isa.NumRegs]uint64
	// FetchedPerCore counts instructions fetched by each core.
	FetchedPerCore []int64
	// Requests counts renaming requests issued (register, memory).
	RegRequests, MemRequests int64
	// CreateMessages counts section-creation messages sent by forks.
	CreateMessages int64
	// RequestHops counts request-forwarding messages: every NoC traversal a
	// renaming request makes while searching backwards along the section
	// order.
	RequestHops int64
	// ResponseMessages counts value responses sent back to requesters,
	// including answers from the committed state.
	ResponseMessages int64
	// DMHAnswers counts the requests answered by the committed state (the
	// paper's "the request travels back to the loader") rather than by a
	// live section.
	DMHAnswers int64
}

// NocMessages returns the total messages charged to the on-chip network:
// section creations, request hops and value responses.
func (r *Result) NocMessages() int64 {
	return r.CreateMessages + r.RequestHops + r.ResponseMessages
}

// FetchIPC returns instructions fetched per cycle until fetch completion.
func (r *Result) FetchIPC() float64 {
	if r.FetchDone == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.FetchDone)
}

// RetireIPC returns instructions retired per cycle over the whole run.
func (r *Result) RetireIPC() float64 {
	if r.RetireDone == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.RetireDone)
}

func (m *Machine) result() *Result {
	r := &Result{
		Cycles:           m.cycle,
		Cores:            len(m.cores),
		RAX:              m.arch[isa.RAX],
		Regs:             m.arch,
		RegRequests:      m.regReqs,
		MemRequests:      m.memReqs,
		CreateMessages:   m.createMsgs,
		RequestHops:      m.reqHops,
		ResponseMessages: m.respMsgs,
		DMHAnswers:       m.dmhAnswers,
		FetchDone:        m.fetchDone,
		RetireDone:       m.retireDone,
	}
	r.FetchedPerCore = make([]int64, 0, len(m.cores))
	for _, c := range m.cores {
		r.FetchedPerCore = append(r.FetchedPerCore, c.fetched)
		r.Instructions += c.fetched
	}
	// Sections dump in order, so their records come out in global trace
	// order, and a run ends with every section dumped.
	r.Sections = slices.Clone(m.sections)
	return r
}

// Fig10Table renders the run's rows (Collector.Timings) as per-core timing
// tables in the style of the paper's Fig. 10: one table per core, one row per
// instruction with its six stage cycles.
func (r *Result) Fig10Table(timings []InstTiming) string {
	byCore := make(map[int][]InstTiming)
	secCore := make(map[int]int)
	for _, s := range r.Sections {
		secCore[s.Pos] = s.Core
	}
	for _, t := range timings {
		c := secCore[t.SecPos]
		byCore[c] = append(byCore[c], t)
	}
	var cores []int
	for c := range byCore {
		cores = append(cores, c)
	}
	sort.Ints(cores)
	var b strings.Builder
	for _, c := range cores {
		fmt.Fprintf(&b, "core %d pipeline\n", c)
		fmt.Fprintf(&b, "%-7s %-28s %5s %5s %5s %5s %5s %5s\n",
			"instr", "text", "fd", "rr", "ew", "ar", "ma", "ret")
		rows := byCore[c]
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].SecPos != rows[j].SecPos {
				return rows[i].SecPos < rows[j].SecPos
			}
			return rows[i].Idx < rows[j].Idx
		})
		dash := func(v int64) string {
			if v == 0 {
				return "-"
			}
			return fmt.Sprintf("%d", v)
		}
		for _, t := range rows {
			fmt.Fprintf(&b, "%-7s %-28s %5s %5s %5s %5s %5s %5s\n",
				t.Label(), t.Text(), dash(t.FD), dash(t.RR), dash(t.EW), dash(t.AR), dash(t.MA), dash(t.RET))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RunProgram builds a machine with the default configuration and runs prog.
func RunProgram(prog *isa.Program, cores int) (*Result, error) {
	m, err := New(prog, DefaultConfig(cores))
	if err != nil {
		return nil, err
	}
	return m.Run()
}
