package aswitch

import (
	"fmt"

	"activesan/internal/san"
	"activesan/internal/sim"
)

// Cost constants for the switch CPU's buffer ports: one cycle per 4-byte
// word moved between a register and a data buffer, a small fixed cost to
// compose or forward a packet header, and two cycles to post a deallocation
// to the DBA.
const (
	wordBytes        = 4
	packetHeaderCost = 8
	deallocCycles    = 2
	argReadCycles    = 4
)

// Ctx is the execution context handed to a handler: it carries the paper's
// programming model — memory-mapped stream reads through the ATB,
// Deallocate_Buffer, message composition through the send unit — and charges
// all work to the owning switch CPU's timing model.
type Ctx struct {
	p   *sim.Proc
	sw  *ActiveSwitch
	c   *SwitchCPU
	inv *Invocation
}

// checkCrash aborts the handler when its switch crashed while the handler
// was blocked or between operations. The abort is cooperative: it fires at
// the Ctx seams (stream waits, reads, sends), which is where a real run-time
// kernel would deliver the kill.
func (x *Ctx) checkCrash() {
	if x.sw.crashed {
		panic(crashAbort{handler: x.inv.HandlerID})
	}
}

// Now returns the current simulated time.
func (x *Ctx) Now() sim.Time { return x.p.Now() }

// Switch returns the active switch the handler runs on.
func (x *Ctx) Switch() *ActiveSwitch { return x.sw }

// CPU returns the switch CPU executing the handler.
func (x *Ctx) CPU() *SwitchCPU { return x.c }

// Src returns the node that sent the invoking message.
func (x *Ctx) Src() san.NodeID { return x.inv.Src }

// BaseAddr returns the mapped address of the invoking message's payload
// (the paper's ADDRESS2 argument area).
func (x *Ctx) BaseAddr() int64 { return x.inv.BaseAddr }

// Flow returns the invoking message's flow id.
func (x *Ctx) Flow() int64 { return x.inv.Flow }

// Args returns the invoking message's argument payload, charging the reads
// that fetch it from the argument buffer.
func (x *Ctx) Args() any {
	x.c.cpu.Compute(x.p, argReadCycles)
	return x.inv.Args
}

// State returns the per-switch state registered for this handler id.
func (x *Ctx) State() any { return x.sw.states[x.inv.HandlerID] }

// SetState replaces the per-switch state for this handler id.
func (x *Ctx) SetState(v any) { x.sw.states[x.inv.HandlerID] = v }

// Compute charges n instructions on the switch CPU.
func (x *Ctx) Compute(n int64) { x.c.cpu.Compute(x.p, n) }

// MemLoad references handler state in switch memory through the switch
// CPU's 1 KB data cache (misses stall — the bit-vector effect the paper
// describes for HashJoin).
func (x *Ctx) MemLoad(addr int64) { x.c.cpu.Load(x.p, addr) }

// MemStore writes handler state in switch memory.
func (x *Ctx) MemStore(addr int64) { x.c.cpu.Store(x.p, addr) }

// Ifetch models an instruction fetch through the switch CPU's 4 KB I-cache
// (used by the svm interpreter, which executes handlers per-instruction).
func (x *Ctx) Ifetch(addr int64) { x.c.cpu.Ifetch(x.p, addr) }

// waitValid parks the handler until t; arrival waits are idle time, not
// cache stall, so they bypass the CPU's stall accounting.
func (x *Ctx) waitValid(t sim.Time) {
	x.c.cpu.Flush(x.p)
	if t > x.p.Now() {
		x.p.SleepUntil(t)
	}
	x.checkCrash()
}

// WaitStream blocks until a data buffer mapped at addr exists and returns
// it. This is the in-order streaming access pattern of the paper's example
// handler: data "typically comes into the switch in order".
func (x *Ctx) WaitStream(addr int64) *DataBuffer {
	x.c.cpu.Flush(x.p)
	for {
		x.checkCrash()
		if b, ok := x.c.atb.Lookup(addr); ok {
			return b
		}
		x.sw.mapSig.Wait(x.p)
	}
}

// NextArrival blocks until any not-yet-consumed buffer is mapped for this
// CPU and returns the oldest, marking it consumed. Handlers over multiple
// interleaved input streams (parallel sort, collective reduction) use this
// so that no stream can starve another.
func (x *Ctx) NextArrival() *DataBuffer {
	x.c.cpu.Flush(x.p)
	for {
		x.checkCrash()
		x.c.pruneArrivals()
		for _, b := range x.c.arrivals {
			if b.live && !b.consumed {
				b.consumed = true
				return b
			}
		}
		x.sw.mapSig.Wait(x.p)
	}
}

// ReadAt waits until bytes [off, off+n) of b are valid and charges the
// loads that move them through the buffer read port. It returns the
// buffer's payload for functional use.
func (x *Ctx) ReadAt(b *DataBuffer, off, n int64) any {
	if n <= 0 {
		return b.payload
	}
	if off < 0 || off+n > b.size {
		panic(fmt.Sprintf("aswitch: ReadAt [%d,%d) outside buffer of %d bytes", off, off+n, b.size))
	}
	x.waitValid(b.ValidAt(off + n - 1))
	x.c.cpu.Compute(x.p, (n+wordBytes-1)/wordBytes)
	return b.payload
}

// ReadAll reads the entire buffer (stalling until its tail is valid) and
// returns its payload.
func (x *Ctx) ReadAll(b *DataBuffer) any { return x.ReadAt(b, 0, b.size) }

// Peek waits only for the first n bytes to be valid and charges only their
// loads — the MPEG frame filter's header-checking pattern.
func (x *Ctx) Peek(b *DataBuffer, n int64) any {
	if n > b.size {
		n = b.size
	}
	return x.ReadAt(b, 0, n)
}

// Deallocate releases every buffer on this CPU mapped wholly below end —
// the paper's Deallocate_Buffer(buf+off) macro — and returns how many were
// freed.
func (x *Ctx) Deallocate(end int64) int {
	freed := x.c.atb.ReleaseBelow(end)
	for _, b := range freed {
		x.sw.dba.Free(b)
	}
	if len(freed) > 0 {
		x.c.cpu.Compute(x.p, int64(len(freed))*deallocCycles)
		x.c.pruneArrivals()
		x.sw.mapSig.Fire()
	}
	return len(freed)
}

// DeallocateBuf releases exactly one buffer.
func (x *Ctx) DeallocateBuf(b *DataBuffer) {
	if x.c.atb.Release(b) {
		x.sw.dba.Free(b)
		x.c.cpu.Compute(x.p, deallocCycles)
		x.c.pruneArrivals()
		x.sw.mapSig.Fire()
	}
}

// ReleaseArgs frees exactly the buffer holding the invoking message's
// payload, if any. Handlers call it once the arguments are read so the
// argument buffer's ATB slot cannot alias a stream block.
func (x *Ctx) ReleaseArgs() {
	if b, ok := x.c.atb.Lookup(x.inv.BaseAddr); ok {
		x.DeallocateBuf(b)
	}
}

// SendSpec describes an outgoing message from a handler.
type SendSpec struct {
	Dst       san.NodeID
	Type      san.Type
	HandlerID int
	// CPUID directs the packet at a specific switch CPU on the receiving
	// switch; -1 lets the dispatch unit choose.
	CPUID   int
	Addr    int64
	Size    int64
	Flow    int64 // 0 = allocate a fresh flow
	Payload any
	Split   func(i int, off, n int64) any
}

// Send composes a message in output staging buffers and injects its packets
// through the crossbar's (N+1)th port. The switch CPU pays one cycle per
// word written plus a fixed per-packet header cost; it blocks only for
// output-buffer and central-queue availability (backpressure), which is
// idle time, not busy time.
func (x *Ctx) Send(spec SendSpec) {
	x.checkCrash()
	hdr := x.header(spec)
	if hdr.Flow == 0 {
		hdr.Flow = x.sw.NextFlow()
	}
	m := &san.Message{Hdr: hdr, Size: spec.Size, Payload: spec.Payload}
	pkts := m.Packets(spec.Split)
	for _, pkt := range pkts {
		buf := x.sw.dba.AllocOutput(x.p)
		words := (pkt.Size + wordBytes - 1) / wordBytes
		x.c.cpu.Compute(x.p, words+packetHeaderCost)
		x.c.cpu.Flush(x.p)
		err := x.inject(pkt)
		x.sw.dba.Free(buf)
		if err != nil {
			panic(err)
		}
	}
	x.sw.stats.MessagesSent++
	x.sw.perHandler[x.inv.HandlerID].MessagesSent++
}

// Forward re-targets one mapped input buffer to a new destination without
// copying — the ISA's "send data buffers to other nodes" extension. The
// packet leaves once the buffer's tail is valid; the CPU pays only the
// header cost. The source buffer stays mapped until Deallocate.
func (x *Ctx) Forward(spec SendSpec, src *DataBuffer, seq int, last bool) {
	x.waitValid(src.TailValidAt())
	hdr := x.header(spec)
	hdr.Seq, hdr.Last = seq, last
	if hdr.Flow == 0 {
		panic("aswitch: Forward requires an explicit flow id")
	}
	pkt := &san.Packet{Hdr: hdr, Size: src.size, Payload: src.payload}
	x.c.cpu.Compute(x.p, packetHeaderCost)
	x.c.cpu.Flush(x.p)
	if err := x.inject(pkt); err != nil {
		panic(err)
	}
}

// header is the switch-sourced header spec describes.
func (x *Ctx) header(spec SendSpec) san.Header {
	return san.Header{
		Src:       x.sw.ID(),
		Dst:       spec.Dst,
		Type:      spec.Type,
		HandlerID: spec.HandlerID,
		CPUID:     spec.CPUID,
		Addr:      spec.Addr,
		Flow:      spec.Flow,
	}
}

// inject sources one handler packet through the crossbar, stamped when
// telemetry is armed, and counts it.
func (x *Ctx) inject(pkt *san.Packet) error {
	if x.sw.stamp != nil {
		pkt.Stamp = x.sw.stamp(x.p.Now())
	}
	if err := x.sw.Inject(x.p, pkt); err != nil {
		return err
	}
	x.sw.stats.PacketsSent++
	x.sw.stats.BytesSent += pkt.Size
	x.sw.perHandler[x.inv.HandlerID].BytesSent += pkt.Size
	return nil
}

// Proc exposes the underlying process for integration points (e.g. the Tar
// handler issuing I/O requests through host-side helpers).
func (x *Ctx) Proc() *sim.Proc { return x.p }
