package san

import "activesan/internal/sim"

// Endpoint is the link-facing half of a fabric endpoint — a host channel
// adapter or a storage target adapter — as event callbacks. Its receive
// engine drains the input link into accept, through the end-to-end
// reliability layer once EnableReliability has armed it. Its retransmit
// engine then puts retransmissions and ACK/NAK control packets on the
// output link: a separate engine, so timer callbacks never wait for the
// link and retransmissions interleave with fresh traffic rather than
// preempting it.
type Endpoint struct {
	eng     *sim.Engine
	id      NodeID
	in, out *Link
	accept  func(*Packet)
	rtxSent func(*Packet)
	started bool

	rx     *sim.Queue[*Packet]
	rxNext sim.Waiter

	tx      *TxTracker
	rel     *RxTracker
	rtxq    *sim.Queue[*Packet]
	rtxs    *Sender
	rtxPkt  *Packet
	rtxNext sim.Waiter
}

// NewEndpoint makes node id's endpoint the receiver of in; arrivals buffer
// until Start. accept takes each validated, in-order packet; rtxSent, if
// not nil, observes each packet the retransmit engine has put on the wire.
func NewEndpoint(eng *sim.Engine, id NodeID, in, out *Link, accept, rtxSent func(*Packet)) *Endpoint {
	e := &Endpoint{eng: eng, id: id, in: in, out: out, accept: accept, rtxSent: rtxSent, rx: sim.NewQueue[*Packet]()}
	in.SetReceiver(e.rx.Put)
	return e
}

// EnableReliability arms end-to-end retransmission: outgoing packets are
// tracked until acknowledged, incoming ones are reordered, deduplicated,
// and acknowledged. Must run before Start. Returns the tx tracker so
// callers can wire its resolve hook.
func (e *Endpoint) EnableReliability(cfg RetxConfig) *TxTracker {
	if e.started {
		panic("san: EnableReliability after Start")
	}
	if e.tx == nil {
		e.rtxq = sim.NewQueue[*Packet]()
		e.tx = NewTxTracker(e.eng, cfg, e.rtxq.Put)
		e.rel = NewRxTracker(e.id, e.rtxq.Put)
	}
	return e.tx
}

// ReliabilityEnabled reports whether EnableReliability ran.
func (e *Endpoint) ReliabilityEnabled() bool { return e.tx != nil }

// SetRelFilter restricts both reliability trackers to peers that speak the
// protocol (see TxTracker.SetTrackable); packets to and from other nodes
// bypass tracking entirely. No-op when reliability is disabled.
func (e *Endpoint) SetRelFilter(fn func(NodeID) bool) {
	if e.tx != nil {
		e.tx.SetTrackable(fn)
		e.rel.SetTrackable(fn)
	}
}

// RelStats returns the reliability counters (zero when disabled).
func (e *Endpoint) RelStats() (TxStats, RxStats) {
	if e.tx == nil {
		return TxStats{}, RxStats{}
	}
	return e.tx.Stats(), e.rel.Stats()
}

// Track records a packet just put on the wire for retransmission, when
// reliability is armed.
func (e *Endpoint) Track(pkt *Packet) {
	if e.tx != nil {
		e.tx.Record(pkt)
	}
}

// Start begins serving the input link and, when armed, the retransmit
// queue.
func (e *Endpoint) Start() {
	e.started = true
	e.rxNext = e.eng.Waiter(e.receive)
	e.receive()
	if e.tx != nil {
		e.rtxNext = e.eng.Waiter(e.retransmit)
		e.rtxs = e.out.NewSender(e.retransmitted)
		e.retransmit()
	}
}

// receive drains the input buffer, then waits for the next arrival. Each
// packet's credit returns once the adapter has taken it off the link.
func (e *Endpoint) receive() {
	for {
		pkt, ok := e.rx.GetOr(e.rxNext)
		if !ok {
			return
		}
		switch {
		case e.rel == nil:
			// Without the reliability layer a corrupt packet is simply lost
			// at the adapter's CRC check.
			if !pkt.Corrupt {
				e.accept(pkt)
			}
		case pkt.Hdr.Type == Ack:
			switch info := pkt.Payload.(type) {
			case AckInfo:
				e.tx.OnAck(pkt.Hdr.Src, info)
			case NakInfo:
				e.tx.OnNak(pkt.Hdr.Src, info)
			}
		default:
			for _, q := range e.rel.Observe(pkt) {
				e.accept(q)
			}
		}
		e.in.ReturnCredit()
	}
}

// retransmit sends the next queued retransmission or control packet, or
// waits for one.
func (e *Endpoint) retransmit() {
	pkt, ok := e.rtxq.GetOr(e.rtxNext)
	if !ok {
		return
	}
	e.rtxPkt = pkt
	e.rtxs.Send(pkt)
}

func (e *Endpoint) retransmitted() {
	if e.rtxSent != nil {
		e.rtxSent(e.rtxPkt)
	}
	e.rtxPkt = nil
	e.retransmit()
}
