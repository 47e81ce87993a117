// Package nic models the host channel adapter: a queue-pair interface that
// segments outgoing messages into MTU packets, reassembles incoming packets
// into completions, and DMAs payloads against the host's RDRAM channel so
// that I/O traffic and CPU memory references contend for the same bandwidth.
// It also accumulates the "host I/O traffic" metric of the paper's figures —
// total bytes in and out of the host.
package nic

import (
	"fmt"

	"activesan/internal/memsys"
	"activesan/internal/san"
	"activesan/internal/sim"
)

// Completion is one fully-arrived message.
type Completion struct {
	Hdr      san.Header // header of the final packet
	Size     int64      // payload bytes across all packets
	Payloads []any      // per-packet payloads in arrival order
	FirstAt  sim.Time   // head arrival of the first packet
	DoneAt   sim.Time   // arrival of the last packet
}

// Bytes gathers the payloads into one slice when they are literal data.
func (c *Completion) Bytes() []byte {
	var out []byte
	for _, p := range c.Payloads {
		if b, ok := p.([]byte); ok {
			out = append(out, b...)
		}
	}
	return out
}

// Stats counts adapter traffic.
type Stats struct {
	PacketsIn, PacketsOut   int64
	BytesIn, BytesOut       int64
	MessagesIn, MessagesOut int64
}

// Traffic returns total bytes moved in either direction — the paper's host
// I/O traffic metric.
func (s Stats) Traffic() int64 { return s.BytesIn + s.BytesOut }

type flowKey struct {
	src  san.NodeID
	flow int64
}

type txJob struct {
	msg   *san.Message
	done  *sim.Latch
	local int64
	// at is the Post time, recorded only when telemetry is armed: the
	// origin the NIC hop (and the end-to-end sample) measures from.
	at sim.Time
}

// NIC is one host channel adapter. Its embedded Endpoint is the receive
// side and the optional reliability layer (EnableReliability, SetRelFilter,
// RelStats).
type NIC struct {
	*san.Endpoint
	eng  *sim.Engine
	id   san.NodeID
	name string
	in   *san.Link
	out  *san.Link
	mem  *memsys.RDRAM

	txq      *sim.Queue[txJob]
	comps    *sim.Queue[*Completion]
	partials map[flowKey]*Completion

	// The transmit engine is event-driven: it works through job's packets
	// (pkts[sent] goes on the wire next) on txs, with continuations bound
	// once at Start.
	job    txJob
	pkts   []*san.Packet
	sent   int
	txs    *san.Sender
	txNext sim.Waiter

	// invalidate, when set, is called for every DMA write so the host's
	// caches drop stale copies of the buffer (DMA coherence).
	invalidate func(base, n int64)

	// Telemetry hooks (nil = off): stamp mints an in-band record for each
	// outgoing packet, complete consumes one at final delivery. maxTxQueue
	// is the transmit-queue high-water mark, tracked only while armed.
	stamp      san.Stamper
	complete   san.Completer
	maxTxQueue int

	flows   int64
	stats   Stats
	started bool
}

// SetInvalidator installs the DMA-coherence callback.
func (n *NIC) SetInvalidator(fn func(base, n int64)) { n.invalidate = fn }

// SetTelemetry arms per-packet stamping on this adapter: stamp mints the
// record for outgoing packets, complete consumes it when an incoming
// stamped packet finishes its DMA. Install before traffic flows.
func (n *NIC) SetTelemetry(stamp san.Stamper, complete san.Completer) {
	n.stamp = stamp
	n.complete = complete
}

// MaxTxQueue reports the transmit-queue depth high-water mark (zero unless
// telemetry was armed).
func (n *NIC) MaxTxQueue() int { return n.maxTxQueue }

// New builds an adapter for node id attached via the given links; mem is the
// host memory channel DMA traffic is charged against.
func New(eng *sim.Engine, id san.NodeID, name string, in, out *san.Link, mem *memsys.RDRAM) *NIC {
	n := &NIC{
		eng:      eng,
		id:       id,
		name:     name,
		in:       in,
		out:      out,
		mem:      mem,
		txq:      sim.NewQueue[txJob](),
		comps:    sim.NewQueue[*Completion](),
		partials: make(map[flowKey]*Completion),
	}
	n.Endpoint = san.NewEndpoint(eng, id, in, out, n.accept, n.retransmitted)
	return n
}

// ID returns the adapter's node id.
func (n *NIC) ID() san.NodeID { return n.id }

// Stats returns a copy of the traffic counters.
func (n *NIC) Stats() Stats { return n.stats }

// NextFlow allocates a node-unique flow id.
func (n *NIC) NextFlow() int64 {
	n.flows++
	return n.flows<<16 | int64(n.id)&0xFFFF
}

// Start wires the receive and transmit engines.
func (n *NIC) Start() {
	if n.started {
		panic("nic: double Start")
	}
	n.started = true
	n.Endpoint.Start()
	n.txNext = n.eng.Waiter(n.nextJob)
	n.txs = n.out.NewSender(n.packetSent)
	n.nextJob()
}

// Post queues msg for transmission and returns a latch that opens once the
// final packet is on the wire. local is the host-memory source address the
// DMA reads are charged against.
func (n *NIC) Post(msg *san.Message, local int64) *sim.Latch {
	if msg.Hdr.Flow == 0 {
		msg.Hdr.Flow = n.NextFlow()
	}
	if msg.Hdr.Src == 0 {
		msg.Hdr.Src = n.id
	}
	done := sim.NewLatch()
	job := txJob{msg: msg, done: done, local: local}
	if n.stamp != nil {
		job.at = n.eng.Now()
		if d := n.txq.Len() + 1; d > n.maxTxQueue {
			n.maxTxQueue = d
		}
	}
	n.txq.Put(job)
	return done
}

// Recv blocks until a message completion is available.
func (n *NIC) Recv(p *sim.Proc) *Completion { return n.comps.Get(p) }

// TryRecv polls for a completion.
func (n *NIC) TryRecv() (*Completion, bool) { return n.comps.TryGet() }

// Pending reports queued-but-unread completions.
func (n *NIC) Pending() int { return n.comps.Len() }

// accept runs the normal receive path for one validated, in-order packet.
func (n *NIC) accept(pkt *san.Packet) {
	now := n.eng.Now()
	// DMA the payload into host memory; the credit returns once the
	// adapter has drained the packet off the link buffer.
	if pkt.Size > 0 {
		n.mem.Reserve(pkt.Hdr.Addr, pkt.Size)
		if n.invalidate != nil {
			n.invalidate(pkt.Hdr.Addr, pkt.Size)
		}
	}
	tail := n.in.TailTime(now, pkt.Size)
	if st := pkt.Stamp; st != nil && n.complete != nil {
		n.complete(st, tail, pkt.Hdr.Type)
	}
	n.stats.PacketsIn++
	n.stats.BytesIn += pkt.Size
	key := flowKey{src: pkt.Hdr.Src, flow: pkt.Hdr.Flow}
	c := n.partials[key]
	if c == nil {
		c = &Completion{FirstAt: now}
		n.partials[key] = c
	}
	c.Size += pkt.Size
	if pkt.Payload != nil {
		c.Payloads = append(c.Payloads, pkt.Payload)
	}
	if pkt.Hdr.Last {
		c.Hdr = pkt.Hdr
		c.DoneAt = tail
		delete(n.partials, key)
		n.stats.MessagesIn++
		if n.eng.Tracing() {
			n.eng.Emit("packet", "recv", n.name,
				fmt.Sprintf("%s msg src=%d flow=%d size=%d", pkt.Hdr.Type, pkt.Hdr.Src, pkt.Hdr.Flow, c.Size))
		}
		n.comps.Put(c)
	}
}

// retransmitted counts a retransmission or ack the Endpoint put on the
// wire: real traffic, so the host-I/O-traffic metric stays honest under
// loss.
func (n *NIC) retransmitted(pkt *san.Packet) {
	n.stats.PacketsOut++
	n.stats.BytesOut += pkt.Size
}

// nextJob starts segmenting the next posted message, or waits for one.
func (n *NIC) nextJob() {
	job, ok := n.txq.GetOr(n.txNext)
	if !ok {
		return
	}
	n.job = job
	n.pkts = job.msg.Packets(job.msg.Split)
	n.sent = 0
	n.sendPacket()
}

// sendPacket DMAs the job's next packet out of host memory onto the link,
// or completes the job once every packet is on the wire.
func (n *NIC) sendPacket() {
	if n.sent == len(n.pkts) {
		n.stats.MessagesOut++
		done := n.job.done
		n.job, n.pkts = txJob{}, nil
		done.Open()
		n.nextJob()
		return
	}
	pkt := n.pkts[n.sent]
	if pkt.Size > 0 {
		off := int64(pkt.Hdr.Seq) * san.MTU
		n.mem.Reserve(n.job.local+off, pkt.Size)
	}
	if n.stamp != nil {
		st := n.stamp(n.job.at)
		st.Add(san.HopNIC, n.name, n.job.at, n.eng.Now())
		pkt.Stamp = st
	}
	n.txs.Send(pkt)
}

func (n *NIC) packetSent() {
	pkt := n.pkts[n.sent]
	n.Track(pkt)
	n.stats.PacketsOut++
	n.stats.BytesOut += pkt.Size
	n.sent++
	n.sendPacket()
}
