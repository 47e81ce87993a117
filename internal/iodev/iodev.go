// Package iodev models the paper's I/O subsystem: a target channel adapter
// (TCA), an Ultra-320 SCSI bus with arbitration/selection overhead and a
// 320 MB/s peak rate, and a two-disk stripe with 100 MB/s total bandwidth,
// seek/rotation latency, and sequential-access detection. Disk data streams
// toward its destination in MTU packets, pipelined disk -> SCSI -> link.
package iodev

import (
	"fmt"

	"activesan/internal/san"
	"activesan/internal/sim"
)

// DiskConfig describes the disk pair. By default the two spindles are
// modeled as one aggregate device at the total bandwidth (the paper only
// constrains the total); setting Disks > 1 switches to explicit striping,
// where each spindle streams at BandwidthBytesPerSec/Disks and stripes of
// StripeUnit bytes round-robin across them.
type DiskConfig struct {
	// Seek is the average positioning time paid on non-sequential access.
	Seek sim.Time
	// Rotation is the average rotational latency added to a seek.
	Rotation sim.Time
	// BandwidthBytesPerSec is the total streaming rate (paper: 100 MB/s).
	BandwidthBytesPerSec float64
	// Disks > 1 enables explicit striping.
	Disks int
	// StripeUnit is the striping granularity (default 64 KB).
	StripeUnit int64
}

// BusConfig describes the SCSI bus.
type BusConfig struct {
	// Arbitration is the per-transaction arbitration+selection overhead.
	Arbitration sim.Time
	// BandwidthBytesPerSec is the peak transfer rate (paper: 320 MB/s).
	BandwidthBytesPerSec float64
}

// Config assembles a storage node.
type Config struct {
	Disk DiskConfig
	Bus  BusConfig
}

// DefaultConfig returns the paper's I/O subsystem parameters. Seek and
// rotation use typical 2002-era server disk values (the paper lists the
// three parameters without printing numbers); sequential streams — "we
// assume a sequential access pattern because most of our applications deal
// with large files" — pay them only once.
func DefaultConfig() Config {
	return Config{
		Disk: DiskConfig{
			Seek:                 5 * sim.Millisecond,
			Rotation:             3 * sim.Millisecond,
			BandwidthBytesPerSec: 100e6,
		},
		Bus: BusConfig{
			Arbitration:          2 * sim.Microsecond,
			BandwidthBytesPerSec: 320e6,
		},
	}
}

// File is a named extent on the storage node. Data or Gen provide the
// functional content; both nil means timing-only transfers.
type File struct {
	Name string
	Size int64
	// Data is literal content.
	Data []byte
	// Gen synthesizes the payload for [off, off+n); used for workloads too
	// large to materialize.
	Gen func(off, n int64) any
}

func (f *File) payload(off, n int64) any {
	switch {
	case f.Gen != nil:
		return f.Gen(off, n)
	case f.Data != nil:
		return f.Data[off : off+n]
	default:
		return nil
	}
}

// ReadReq asks a storage node to stream part of a file to a destination.
// It travels as the payload of a san.IORequest packet.
type ReadReq struct {
	File string
	Off  int64
	Len  int64

	// Dst receives the data packets; DstAddr is the mapped base address
	// (host buffer or active-switch stream region).
	Dst     san.NodeID
	DstAddr int64
	// Type is the data packets' type: san.Data for plain delivery, or
	// san.ActiveMsg when the stream should invoke a handler at Dst.
	Type      san.Type
	HandlerID int
	CPUID     int
	Flow      int64

	// Stripe/Ways/WayStride distribute the stream across switch CPUs (the
	// paper's MD5 variant): block b = offset/Stripe goes to CPU b mod Ways,
	// mapped at DstAddr + way*WayStride + (b/Ways)*Stripe + offset%Stripe.
	// Stripe must be a multiple of the MTU; Ways <= 1 disables striping.
	Stripe    int64
	Ways      int
	WayStride int64

	// FilterID selects a registered active-disk pushdown filter (0 = none).
	FilterID int

	// Notify, when valid, receives a small Control packet once the final
	// data packet is on the wire (used when the data bypasses the
	// requester, so it can pace further requests).
	Notify     san.NodeID
	NotifyFlow int64
}

// WriteReq asks a storage node to absorb Len bytes of Data packets that
// arrive carrying the same flow id as the request packet.
type WriteReq struct {
	File string
	Off  int64
	Len  int64

	// Notify receives a Control ack when the write is durable.
	Notify     san.NodeID
	NotifyFlow int64
}

// Filter is an active-disk pushdown: the paper's related work points out
// that active I/O devices compose with active switches into "a two-level
// active I/O system". A storage node with registered filters runs them on
// an embedded processor as data leaves the platters, emitting only the
// kept bytes.
type Filter struct {
	Name string
	// Fn inspects chunk [off, off+n) of the file and returns how many
	// bytes survive and their payload.
	Fn func(off, n int64, payload any) (keep int64, out any)
	// CyclesPerByte is charged on the embedded disk processor per input
	// byte.
	CyclesPerByte int64
	// Clock is the embedded processor's clock (default 200 MHz — an
	// active-disk-class core, weaker than the switch CPU).
	Clock sim.Clock
}

// Stats counts storage activity.
type Stats struct {
	Reads, Writes     int64
	BytesRead         int64
	BytesWritten      int64
	Seeks, Sequential int64
	// FilteredBytes counts bytes a pushdown filter removed at the source.
	FilteredBytes int64
	// DiskRetries counts media errors recovered by re-reading (only fault
	// injection produces them).
	DiskRetries int64
}

// DiskInjector decides whether a disk operation fails and must be retried.
// Implementations must be deterministic (seeded PRNG only).
type DiskInjector interface {
	OnDiskOp(node, file string, off, n int64) bool
}

// maxDiskAttempts bounds injected-media-error retries per operation so an
// always-fail plan degrades a run instead of hanging it.
const maxDiskAttempts = 64

// StorageNode is a TCA plus its SCSI bus and disk stripe. The embedded
// Endpoint is the TCA's receive side and the optional reliability layer
// (EnableReliability, SetRelFilter, RelStats).
type StorageNode struct {
	*san.Endpoint
	eng  *sim.Engine
	id   san.NodeID
	name string
	cfg  Config
	in   *san.Link
	out  *san.Link

	files   map[string]*File
	filters map[int]*Filter
	reqs    *sim.Queue[queuedReq]
	bus     *sim.Server
	// fcpu serializes the embedded filter processor.
	fcpu *sim.Server

	// diskFreeAt serializes the logical disk; lastFile/lastEnd detect
	// sequential access.
	diskFreeAt sim.Time
	lastFile   string
	lastEnd    int64
	// spindles tracks per-disk timelines for explicit striping.
	spindles []spindle

	// writes tracks expected write streams by flow id.
	writes map[int64]*writeState

	// Optional fault injection (nil unless armed).
	dinj   DiskInjector
	dretry sim.Time

	// Telemetry hooks (nil = off): stamp mints in-band records for read
	// data leaving the node, complete consumes them when stamped write
	// data lands. maxReqQueue is the request-queue high-water mark,
	// tracked only while armed.
	stamp       san.Stamper
	complete    san.Completer
	maxReqQueue int

	stats   Stats
	started bool
}

type writeState struct {
	req WriteReq
	got int64
	src san.NodeID
}

// queuedReq is a request packet with its arrival time, so spindle
// timelines can start when the work arrived rather than when the TCA got
// to it.
type queuedReq struct {
	pkt *san.Packet
	at  sim.Time
}

// spindle is one physical disk's timeline under explicit striping.
type spindle struct {
	freeAt   sim.Time
	lastFile string
	lastEnd  int64
}

// New builds a storage node attached via the given links.
func New(eng *sim.Engine, id san.NodeID, name string, in, out *san.Link, cfg Config) *StorageNode {
	if cfg.Disk.Disks > 1 && cfg.Disk.StripeUnit <= 0 {
		cfg.Disk.StripeUnit = 64 * 1024
	}
	s := &StorageNode{
		eng:     eng,
		id:      id,
		name:    name,
		cfg:     cfg,
		in:      in,
		out:     out,
		files:   make(map[string]*File),
		filters: make(map[int]*Filter),
		reqs:    sim.NewQueue[queuedReq](),
		bus:     sim.NewServer(eng, name+".scsi"),
		fcpu:    sim.NewServer(eng, name+".fcpu"),
		writes:  make(map[int64]*writeState),
	}
	s.Endpoint = san.NewEndpoint(eng, id, in, out, s.accept, nil)
	if cfg.Disk.Disks > 1 {
		s.spindles = make([]spindle, cfg.Disk.Disks)
	}
	return s
}

// RegisterFilter installs an active-disk pushdown filter under id (> 0).
func (s *StorageNode) RegisterFilter(id int, f *Filter) {
	if id <= 0 {
		panic("iodev: filter ids must be positive")
	}
	if _, dup := s.filters[id]; dup {
		panic(fmt.Sprintf("iodev: duplicate filter %d on %s", id, s.name))
	}
	if f.Clock.Period <= 0 {
		f.Clock = sim.Clock{Period: 5000 * sim.Picosecond} // 200 MHz
	}
	s.filters[id] = f
}

// SetTelemetry arms per-packet stamping on this node: stamp mints records
// for outgoing read data, complete consumes records carried by incoming
// write data. Install before traffic flows.
func (s *StorageNode) SetTelemetry(stamp san.Stamper, complete san.Completer) {
	s.stamp = stamp
	s.complete = complete
}

// MaxQueuedReqs reports the read-request queue depth high-water mark (zero
// unless telemetry was armed).
func (s *StorageNode) MaxQueuedReqs() int { return s.maxReqQueue }

// ID returns the node id.
func (s *StorageNode) ID() san.NodeID { return s.id }

// Stats returns a copy of the counters.
func (s *StorageNode) Stats() Stats { return s.stats }

// Name returns the node's debug name.
func (s *StorageNode) Name() string { return s.name }

// AddFile registers a file; duplicate names panic (workload setup error).
func (s *StorageNode) AddFile(f *File) {
	if _, dup := s.files[f.Name]; dup {
		panic(fmt.Sprintf("iodev: duplicate file %q on %s", f.Name, s.name))
	}
	s.files[f.Name] = f
}

// SetDiskFaults arms media-error injection: when inj votes to fail an
// operation the disk pays retry (default: a seek + rotation re-read) and
// tries again. Must run before Start.
func (s *StorageNode) SetDiskFaults(inj DiskInjector, retry sim.Time) {
	if s.started {
		panic("iodev: SetDiskFaults after Start")
	}
	if retry <= 0 {
		retry = s.cfg.Disk.Seek + s.cfg.Disk.Rotation
	}
	s.dinj = inj
	s.dretry = retry
}

// Start starts the TCA's receive and retransmit engines and spawns the disk
// service process.
func (s *StorageNode) Start() {
	if s.started {
		panic("iodev: double Start")
	}
	s.started = true
	s.Endpoint.Start()
	s.eng.Spawn(s.name+".disk", s.diskLoop)
}

// accept runs the normal receive path for one validated, in-order packet.
func (s *StorageNode) accept(pkt *san.Packet) {
	switch pkt.Hdr.Type {
	case san.IORequest:
		// Register writes immediately so their data — possibly right
		// behind the request — is never dropped; reads queue for the
		// disk process.
		if w, isW := pkt.Payload.(WriteReq); isW {
			s.writes[pkt.Hdr.Flow] = &writeState{req: w, src: pkt.Hdr.Src}
		} else {
			s.reqs.Put(queuedReq{pkt: pkt, at: s.eng.Now()})
			if s.stamp != nil {
				if d := s.reqs.Len(); d > s.maxReqQueue {
					s.maxReqQueue = d
				}
			}
		}
	case san.Data:
		s.absorbWrite(pkt)
	default:
		// Control and stray packets are ignored.
	}
}

// sendData stamps a read-data packet leaving the disk, when telemetry is
// armed, and sends it.
func (s *StorageNode) sendData(p *sim.Proc, pkt *san.Packet, arrived sim.Time) {
	if s.stamp != nil {
		pkt.Stamp = s.stamp(arrived)
		pkt.Stamp.Add(san.HopDisk, s.name, arrived, p.Now())
	}
	s.sendTracked(p, pkt)
}

// notify sends the Control packet a request asked for on completion, if
// it named a node.
func (s *StorageNode) notify(p *sim.Proc, dst san.NodeID, flow int64) {
	if dst != san.NoNode && dst != 0 {
		s.sendTracked(p, &san.Packet{Hdr: san.Header{Src: s.id, Dst: dst, Type: san.Control, Flow: flow, Last: true}})
	}
}

// sendTracked puts pkt on the wire and records it for retransmission when
// reliability is armed.
func (s *StorageNode) sendTracked(p *sim.Proc, pkt *san.Packet) {
	s.out.Send(p, pkt)
	s.Track(pkt)
}

// absorbWrite charges bus and disk occupancy for one arriving write packet
// and acks the stream when complete.
func (s *StorageNode) absorbWrite(pkt *san.Packet) {
	w := s.writes[pkt.Hdr.Flow]
	if w == nil {
		return // write data with no posted WriteReq: drop
	}
	s.bus.Reserve(sim.TransferTime(pkt.Size, s.cfg.Bus.BandwidthBytesPerSec))
	// Disk occupancy; sequential writes stream at disk bandwidth, and the
	// final reservation's completion is the durability point.
	s.diskReserve(w.req.File, w.req.Off+w.got, pkt.Size, false)
	durable := s.diskFreeAt
	w.got += pkt.Size
	s.stats.BytesWritten += pkt.Size
	if st := pkt.Stamp; st != nil && s.complete != nil {
		s.complete(st, s.eng.Now(), pkt.Hdr.Type)
	}
	if w.got >= w.req.Len {
		delete(s.writes, pkt.Hdr.Flow)
		s.stats.Writes++
		if s.eng.Tracing() {
			s.eng.Emit("disk", "write", s.name,
				fmt.Sprintf("write %q [%d,%d) durable", w.req.File, w.req.Off, w.req.Off+w.req.Len))
		}
		if w.req.Notify != san.NoNode && w.req.Notify != 0 {
			// The ack means durable: it leaves once the disk has absorbed
			// the final byte.
			req := w.req
			s.eng.SpawnAt(durable, s.name+".ack", func(ap *sim.Proc) { s.notify(ap, req.Notify, req.NotifyFlow) })
		}
	}
}

// diskReserve books the logical disk for [off, off+n) of file and returns
// when the first byte leaves the platters: once the disk is free, after a
// seek unless the access continues the previous one, and — for reads under
// a disk fault plan — after a re-read penalty per injected media error.
func (s *StorageNode) diskReserve(file string, off, n int64, read bool) sim.Time {
	first := s.diskFreeAt
	if now := s.eng.Now(); first < now {
		first = now
	}
	if file != s.lastFile || off != s.lastEnd {
		first += s.cfg.Disk.Seek + s.cfg.Disk.Rotation
		s.stats.Seeks++
	} else {
		s.stats.Sequential++
	}
	if read && s.dinj != nil {
		// The attempt cap only bounds a pathological always-fail plan.
		for attempt := 0; attempt < maxDiskAttempts && s.dinj.OnDiskOp(s.name, file, off, n); attempt++ {
			s.stats.DiskRetries++
			first += s.dretry
		}
	}
	s.diskFreeAt = first + sim.TransferTime(n, s.cfg.Disk.BandwidthBytesPerSec)
	s.lastFile = file
	s.lastEnd = off + n
	return first
}

// diskLoop services read requests one at a time, streaming each as MTU
// packets pipelined through the SCSI bus and the network link.
func (s *StorageNode) diskLoop(p *sim.Proc) {
	for {
		q := s.reqs.Get(p)
		req, ok := q.pkt.Payload.(ReadReq)
		if !ok {
			continue
		}
		s.serveRead(p, req, q.at)
	}
}

func (s *StorageNode) serveRead(p *sim.Proc, req ReadReq, arrived sim.Time) {
	f := s.files[req.File]
	if f == nil {
		panic(fmt.Sprintf("iodev: read of unknown file %q on %s", req.File, s.name))
	}
	if req.Off < 0 || req.Off+req.Len > f.Size {
		panic(fmt.Sprintf("iodev: read [%d,%d) outside %q of %d bytes", req.Off, req.Off+req.Len, req.File, f.Size))
	}
	s.stats.Reads++
	s.stats.BytesRead += req.Len
	if s.eng.Tracing() {
		s.eng.Emit("disk", "read", s.name,
			fmt.Sprintf("read %q [%d,%d) -> node %d", req.File, req.Off, req.Off+req.Len, req.Dst))
	}

	// Reserve the disk for the whole request up front (requests are served
	// in order on one spindle set); chunk k leaves the platters at a rate-
	// limited instant within the reservation.
	first := s.diskReserve(req.File, req.Off, req.Len, true)
	var ready func(endOff int64) sim.Time
	if len(s.spindles) > 1 {
		ready = s.stripedReadiness(arrived, req)
	} else {
		ready = func(endOff int64) sim.Time {
			return first + sim.TransferTime(endOff, s.cfg.Disk.BandwidthBytesPerSec)
		}
	}

	hdr := san.Header{
		Src:       s.id,
		Dst:       req.Dst,
		Type:      req.Type,
		HandlerID: req.HandlerID,
		CPUID:     req.CPUID,
		Addr:      req.DstAddr,
		Flow:      req.Flow,
	}

	if req.FilterID != 0 {
		if req.Ways > 1 {
			panic("iodev: pushdown filters do not compose with CPU striping")
		}
		flt := s.filters[req.FilterID]
		if flt == nil {
			panic(fmt.Sprintf("iodev: read names unregistered filter %d on %s", req.FilterID, s.name))
		}
		s.serveFilteredRead(p, req, f, flt, arrived, first, hdr)
		return
	}

	m := &san.Message{Hdr: hdr, Size: req.Len}
	pkts := m.Packets(func(_ int, off, n int64) any { return f.payload(req.Off+off, n) })
	if req.Ways >= 1 && req.Stripe > 0 {
		if req.Stripe%san.MTU != 0 {
			panic(fmt.Sprintf("iodev: stripe %d must be a positive MTU multiple", req.Stripe))
		}
		for _, pkt := range pkts {
			g := req.Off + int64(pkt.Hdr.Seq)*san.MTU
			blk := g / req.Stripe
			way := int(blk % int64(req.Ways))
			pkt.Hdr.CPUID = way
			pkt.Hdr.Addr = req.DstAddr + int64(way)*req.WayStride +
				(blk/int64(req.Ways))*req.Stripe + g%req.Stripe
		}
	}

	// Per-request SCSI arbitration/selection.
	s.bus.Reserve(s.cfg.Bus.Arbitration)
	for i, pkt := range pkts {
		at := ready(int64(i+1) * san.MTU)
		if at > p.Now() {
			p.SleepUntil(at)
		}
		s.bus.Use(p, sim.TransferTime(pkt.Size, s.cfg.Bus.BandwidthBytesPerSec))
		s.sendData(p, pkt, arrived)
	}
	s.notify(p, req.Notify, req.NotifyFlow)
}

// serveFilteredRead streams a read through a registered pushdown filter:
// each MTU chunk leaves the platters, pays the embedded processor's
// per-byte cost, and only its surviving bytes go on the wire. The stream
// ends with an 8-byte trailer packet (Last=true) whose payload is the
// total bytes kept, so consumers of the variable-length output can
// terminate.
func (s *StorageNode) serveFilteredRead(p *sim.Proc, req ReadReq, f *File, flt *Filter, arrived, first sim.Time, hdr san.Header) {
	s.bus.Reserve(s.cfg.Bus.Arbitration)
	var kept int64
	seq := 0
	for off := int64(0); off < req.Len; off += san.MTU {
		n := req.Len - off
		if n > san.MTU {
			n = san.MTU
		}
		ready := first + sim.TransferTime(off+n, s.cfg.Disk.BandwidthBytesPerSec)
		if ready > p.Now() {
			p.SleepUntil(ready)
		}
		// The embedded filter processor scans every byte.
		s.fcpu.Use(p, flt.Clock.Cycles(flt.CyclesPerByte*n))
		keep, out := flt.Fn(req.Off+off, n, f.payload(req.Off+off, n))
		if keep < 0 || keep > n {
			panic(fmt.Sprintf("iodev: filter %q kept %d of %d bytes", flt.Name, keep, n))
		}
		s.stats.FilteredBytes += n - keep
		if keep == 0 {
			continue
		}
		s.bus.Use(p, sim.TransferTime(keep, s.cfg.Bus.BandwidthBytesPerSec))
		pkt := &san.Packet{Hdr: hdr, Size: keep, Payload: out}
		pkt.Hdr.Seq = seq
		pkt.Hdr.Addr = hdr.Addr + kept
		seq++
		kept += keep
		s.sendData(p, pkt, arrived)
	}
	// Trailer: total kept, Last set.
	trailer := &san.Packet{Hdr: hdr, Size: 8, Payload: kept}
	trailer.Hdr.Seq = seq
	trailer.Hdr.Addr = hdr.Addr + kept
	trailer.Hdr.Last = true
	s.sendData(p, trailer, arrived)
	s.notify(p, req.Notify, req.NotifyFlow)
}

// stripedReadiness builds the per-chunk readiness function for explicit
// striping: stripes of StripeUnit bytes round-robin across the spindles,
// each streaming at 1/Disks of the total bandwidth with its own
// sequential-access tracking.
func (s *StorageNode) stripedReadiness(now sim.Time, req ReadReq) func(endOff int64) sim.Time {
	d := len(s.spindles)
	perDiskBW := s.cfg.Disk.BandwidthBytesPerSec / float64(d)
	su := s.cfg.Disk.StripeUnit

	// Start each spindle: pay its own seek when it is not already
	// positioned after the previous request on this file.
	starts := make([]sim.Time, d)
	for i := range s.spindles {
		sp := &s.spindles[i]
		st := sp.freeAt
		if st < now {
			st = now
		}
		if sp.lastFile != req.File || sp.lastEnd != req.Off {
			st += s.cfg.Disk.Seek + s.cfg.Disk.Rotation
		}
		starts[i] = st
		sp.lastFile = req.File
		sp.lastEnd = req.Off + req.Len
	}

	// Precompute each stripe's completion curve: within stripe k (disk
	// k%d), byte w is ready at stripeStart + w/perDiskBW, where
	// stripeStart advances per disk.
	nStripes := int((req.Len + su - 1) / su)
	stripeStart := make([]sim.Time, nStripes)
	diskCursor := append([]sim.Time(nil), starts...)
	for k := 0; k < nStripes; k++ {
		// Stripe placement follows the absolute file offset, so
		// consecutive requests engage different spindles.
		disk := int(((req.Off + int64(k)*su) / su) % int64(d))
		stripeStart[k] = diskCursor[disk]
		n := req.Len - int64(k)*su
		if n > su {
			n = su
		}
		diskCursor[disk] += sim.TransferTime(n, perDiskBW)
	}
	for i := range s.spindles {
		s.spindles[i].freeAt = diskCursor[i]
	}

	return func(endOff int64) sim.Time {
		if endOff > req.Len {
			endOff = req.Len
		}
		last := endOff - 1
		k := last / su
		w := last % su
		return stripeStart[k] + sim.TransferTime(w+1, s.cfg.Disk.BandwidthBytesPerSec/float64(d))
	}
}
