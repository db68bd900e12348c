package backend

import (
	"runtime"

	"repro/internal/trace"
)

// A traced Stream runs the emulator on the caller's goroutine and its sink on
// a second one, so a one-pass analysis (the two Fig. 7 dependence models)
// runs beside the emulation it reads instead of inside the emulator's step.
// The emulator's hook copies each record into a batch; a full batch goes to
// the sink's goroutine, which hands every record in it to the sink, in order,
// and gives the batch back. Waking the other goroutine costs far more
// than copying a record, so batches are large and several are in flight:
// streamBatches batches of streamBatch records (96 KiB each) buffer 8 K
// records, and the emulator waits only when every batch but the one it is
// filling is still unread.
const (
	streamBatch   = 2048
	streamBatches = 4
)

// freeBatches keeps batches between Streams, so that a traced run allocates
// none once earlier runs have filled the list. It keeps two Streams' worth; a
// Stream that finds it empty allocates, and a batch handed back to a full
// list is left to the collector.
var freeBatches = make(chan []trace.Record, 2*streamBatches)

// pipe is one traced Stream's batches and the goroutine that drains them.
// Only the emulator's goroutine touches cur, n and owned; the sink's
// goroutine keeps what it needs per record in locals, so the records are the
// only memory one goroutine writes per record and the other reads.
type pipe struct {
	cur   []trace.Record // the batch the emulator is filling, full length
	n     int            // records in cur
	owned int            // batches this Stream has taken

	// Each channel holds all of this Stream's batches, so no send on it
	// blocks: the emulator waits only to receive an empty batch.
	full  chan []trace.Record // filled batches, in trace order
	empty chan []trace.Record // batches the sink's goroutine has read
	done  chan struct{}       // closed when the sink's goroutine ends

	// Set by the sink's goroutine before done closes: whether it read every
	// batch, and if not, what the sink panicked with (nil for a Goexit).
	clean bool
	fault any
}

// startPipe starts the sink's goroutine; the caller hands it records through
// add and must call finish once the run is over.
func startPipe(sink func(*trace.Record)) *pipe {
	p := &pipe{
		full:  make(chan []trace.Record, streamBatches),
		empty: make(chan []trace.Record, streamBatches),
		done:  make(chan struct{}),
	}
	p.cur = p.take()
	go p.drain(sink)
	return p
}

// add is the emulator's trace hook: it copies the record, which the emulator
// overwrites with the next one, and sends a full batch on. The copy goes
// field by field: the emulator has just built the record with narrow stores,
// and the wide loads of a whole-struct copy would stall on them.
func (p *pipe) add(r *trace.Record) {
	d := &p.cur[p.n]
	d.Seq, d.IP, d.Load, d.Store = r.Seq, r.IP, r.Load, r.Store
	d.CallLevel, d.Op, d.Taken, d.HasLoad, d.HasStore = r.CallLevel, r.Op, r.Taken, r.HasLoad, r.HasStore
	d.Regs = r.Regs
	if p.n++; p.n == streamBatch {
		p.full <- p.cur
		p.cur, p.n = p.take(), 0
	}
}

// take returns an empty batch: while this Stream holds fewer than
// streamBatches, one from freeBatches or else a new one; after that, the next
// one the sink's goroutine gives back. A run as long as streamBatches batches
// thus takes exactly streamBatches, and leaves them for the next.
func (p *pipe) take() []trace.Record {
	if p.owned < streamBatches {
		p.owned++
		select {
		case b := <-freeBatches:
			return b
		default:
			return make([]trace.Record, streamBatch)
		}
	}
	return <-p.empty
}

// drain is the sink's goroutine. After a panic (or a Goexit) in the sink it
// reads the remaining batches without calling the sink, so that the emulator
// never waits for a batch that is not coming back.
func (p *pipe) drain(sink func(*trace.Record)) {
	full, empty := p.full, p.empty
	defer close(p.done)
	defer func() {
		if p.clean {
			return
		}
		p.fault = recover()
		for b := range full {
			empty <- b[:streamBatch]
		}
	}()
	for b := range full {
		for i := range b {
			sink(&b[i])
		}
		empty <- b[:streamBatch]
	}
	p.clean = true
}

// finish sends the partial batch, waits until the sink has been called on it,
// returns this Stream's batches to freeBatches, and then re-raises on the
// caller's goroutine whatever ended the sink's goroutine early.
func (p *pipe) finish() {
	if p.n > 0 {
		p.full <- p.cur[:p.n]
	} else {
		p.empty <- p.cur
	}
	close(p.full)
	<-p.done
	for len(p.empty) > 0 {
		b := <-p.empty
		select {
		case freeBatches <- b:
		default: // the list is full: b is left to the collector
		}
	}
	switch {
	case p.clean:
	case p.fault != nil:
		panic(p.fault)
	default:
		runtime.Goexit()
	}
}
