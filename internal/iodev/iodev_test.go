package iodev

import (
	"testing"

	"activesan/internal/san"
	"activesan/internal/sim"
)

// rig builds one storage node whose links loop back to a test endpoint.
func rig(eng *sim.Engine) (*StorageNode, *san.Link, endpoint) {
	cfg := san.DefaultLinkConfig()
	toStore := san.NewLink(eng, "to", cfg)
	fromStore := newEndpoint(san.NewLink(eng, "from", cfg))
	s := New(eng, 200, "d0", toStore, fromStore.Link, DefaultConfig())
	s.Start()
	return s, toStore, fromStore
}

// endpoint is the test client's receive side of a link: arrivals queue in
// its input buffer rx.
type endpoint struct {
	*san.Link
	rx *sim.Queue[*san.Packet]
}

func newEndpoint(l *san.Link) endpoint {
	rx := sim.NewQueue[*san.Packet]()
	l.SetReceiver(rx.Put)
	return endpoint{Link: l, rx: rx}
}

func request(p *sim.Proc, l *san.Link, req any, flow int64) {
	l.Send(p, &san.Packet{
		Hdr:     san.Header{Src: 1, Dst: 200, Type: san.IORequest, Flow: flow, Last: true},
		Size:    64,
		Payload: req,
	})
}

func TestReadStreamsPackets(t *testing.T) {
	eng := sim.NewEngine()
	s, toStore, fromStore := rig(eng)
	data := make([]byte, 2048)
	for i := range data {
		data[i] = byte(i)
	}
	s.AddFile(&File{Name: "f", Size: 2048, Data: data})
	var got []byte
	var first, last sim.Time
	eng.Spawn("client", func(p *sim.Proc) {
		request(p, toStore, ReadReq{File: "f", Off: 0, Len: 2048, Dst: 1, DstAddr: 0, Type: san.Data, Flow: 9}, 1)
		for len(got) < 2048 {
			pkt := fromStore.rx.Get(p)
			if first == 0 {
				first = p.Now()
			}
			last = p.Now()
			got = append(got, pkt.Payload.([]byte)...)
			fromStore.ReturnCredit()
		}
	})
	eng.Run()
	defer eng.Shutdown()
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d corrupted", i)
		}
	}
	// First packet must wait out seek+rotation; the stream is paced by the
	// 100 MB/s disk (5.12 us per packet).
	if first < 8*sim.Millisecond {
		t.Fatalf("first packet at %v, before seek+rotation", first)
	}
	if d := last - first; d < 15*sim.Microsecond {
		t.Fatalf("stream spread %v too tight for disk pacing", d)
	}
	st := s.Stats()
	if st.Reads != 1 || st.BytesRead != 2048 || st.Seeks != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSequentialReadsSkipSeek(t *testing.T) {
	eng := sim.NewEngine()
	s, toStore, fromStore := rig(eng)
	s.AddFile(&File{Name: "f", Size: 4096})
	eng.Spawn("client", func(p *sim.Proc) {
		request(p, toStore, ReadReq{File: "f", Off: 0, Len: 2048, Dst: 1, Type: san.Data, Flow: 1}, 1)
		request(p, toStore, ReadReq{File: "f", Off: 2048, Len: 2048, Dst: 1, Type: san.Data, Flow: 2}, 2)
		for i := 0; i < 8; i++ {
			fromStore.rx.Get(p)
			fromStore.ReturnCredit()
		}
	})
	eng.Run()
	defer eng.Shutdown()
	st := s.Stats()
	if st.Seeks != 1 || st.Sequential != 1 {
		t.Fatalf("seeks/sequential = %d/%d, want 1/1", st.Seeks, st.Sequential)
	}
}

func TestNotifyControlPacket(t *testing.T) {
	eng := sim.NewEngine()
	s, toStore, fromStore := rig(eng)
	s.AddFile(&File{Name: "f", Size: 512})
	var sawNotify bool
	eng.Spawn("client", func(p *sim.Proc) {
		request(p, toStore, ReadReq{
			File: "f", Len: 512, Dst: 1, Type: san.Data, Flow: 1,
			Notify: 1, NotifyFlow: 77,
		}, 1)
		for i := 0; i < 2; i++ {
			pkt := fromStore.rx.Get(p)
			if pkt.Hdr.Type == san.Control && pkt.Hdr.Flow == 77 {
				sawNotify = true
			}
			fromStore.ReturnCredit()
		}
	})
	eng.Run()
	defer eng.Shutdown()
	_ = s
	if !sawNotify {
		t.Fatal("no completion notification")
	}
}

func TestWritePathAcks(t *testing.T) {
	eng := sim.NewEngine()
	s, toStore, fromStore := rig(eng)
	var acked bool
	eng.Spawn("client", func(p *sim.Proc) {
		request(p, toStore, WriteReq{File: "out", Len: 1024, Notify: 1, NotifyFlow: 88}, 5)
		// Stream the write data on the same flow.
		m := &san.Message{Hdr: san.Header{Src: 1, Dst: 200, Type: san.Data, Flow: 5}, Size: 1024}
		for _, pkt := range m.Packets(nil) {
			toStore.Send(p, pkt)
		}
		pkt := fromStore.rx.Get(p)
		acked = pkt.Hdr.Type == san.Control && pkt.Hdr.Flow == 88
		fromStore.ReturnCredit()
	})
	eng.Run()
	defer eng.Shutdown()
	if !acked {
		t.Fatal("write not acknowledged")
	}
	if s.Stats().Writes != 1 || s.Stats().BytesWritten != 1024 {
		t.Fatalf("write stats = %+v", s.Stats())
	}
}

func TestStripedReadTagsPackets(t *testing.T) {
	eng := sim.NewEngine()
	s, toStore, fromStore := rig(eng)
	s.AddFile(&File{Name: "f", Size: 4096})
	var cpus []int
	var addrs []int64
	eng.Spawn("client", func(p *sim.Proc) {
		request(p, toStore, ReadReq{
			File: "f", Len: 4096, Dst: 1, DstAddr: 0x1000, Type: san.Data, Flow: 1,
			Stripe: 1024, Ways: 2, WayStride: 0x100000,
		}, 1)
		for i := 0; i < 8; i++ {
			pkt := fromStore.rx.Get(p)
			cpus = append(cpus, pkt.Hdr.CPUID)
			addrs = append(addrs, pkt.Hdr.Addr)
			fromStore.ReturnCredit()
		}
	})
	eng.Run()
	defer eng.Shutdown()
	// 1024-byte stripes of a 4096-byte read across 2 ways: packets 0,1 to
	// way 0; 2,3 to way 1; 4,5 to way 0; 6,7 to way 1.
	wantCPU := []int{0, 0, 1, 1, 0, 0, 1, 1}
	for i := range wantCPU {
		if cpus[i] != wantCPU[i] {
			t.Fatalf("cpu tags = %v, want %v", cpus, wantCPU)
		}
	}
	// Way-0 chain addresses are contiguous from DstAddr.
	if addrs[0] != 0x1000 || addrs[1] != 0x1200 || addrs[4] != 0x1400 {
		t.Fatalf("way-0 addrs = %#x %#x %#x", addrs[0], addrs[1], addrs[4])
	}
	// Way-1 chain starts at DstAddr + WayStride.
	if addrs[2] != 0x101000 || addrs[6] != 0x101400 {
		t.Fatalf("way-1 addrs = %#x %#x", addrs[2], addrs[6])
	}
}

func TestReadUnknownFilePanics(t *testing.T) {
	eng := sim.NewEngine()
	_, toStore, _ := rig(eng)
	eng.Spawn("client", func(p *sim.Proc) {
		request(p, toStore, ReadReq{File: "missing", Len: 512, Dst: 1, Type: san.Data, Flow: 1}, 1)
	})
	defer func() {
		eng.Shutdown()
		if recover() == nil {
			t.Fatal("read of unknown file did not panic")
		}
	}()
	eng.Run()
}

func TestFileGenPayload(t *testing.T) {
	f := &File{Name: "g", Size: 1024, Gen: func(off, n int64) any { return off }}
	if got := f.payload(512, 128); got != int64(512) {
		t.Fatalf("gen payload = %v", got)
	}
	fd := &File{Name: "d", Size: 4, Data: []byte{1, 2, 3, 4}}
	if got := fd.payload(1, 2).([]byte); got[0] != 2 || got[1] != 3 {
		t.Fatalf("data payload = %v", got)
	}
	fn := &File{Name: "n", Size: 4}
	if fn.payload(0, 4) != nil {
		t.Fatal("nil-content file returned payload")
	}
}

func TestDuplicateFilePanics(t *testing.T) {
	eng := sim.NewEngine()
	s, _, _ := rig(eng)
	s.AddFile(&File{Name: "x", Size: 1})
	defer func() {
		eng.Shutdown()
		if recover() == nil {
			t.Fatal("duplicate AddFile did not panic")
		}
	}()
	s.AddFile(&File{Name: "x", Size: 1})
}

func TestExplicitStriping(t *testing.T) {
	// With two explicit spindles, a large sequential read still reaches
	// the total bandwidth (both stream in parallel), but the first stripe
	// ramps at a single disk's rate.
	run := func(disks int) (first, last sim.Time) {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.Disk.Disks = disks
		cfg.Disk.StripeUnit = 64 * 1024
		lcfg := san.DefaultLinkConfig()
		toStore := san.NewLink(eng, "to", lcfg)
		fromStore := newEndpoint(san.NewLink(eng, "from", lcfg))
		s := New(eng, 200, "d0", toStore, fromStore.Link, cfg)
		const total = 1 << 20
		s.AddFile(&File{Name: "f", Size: total})
		s.Start()
		eng.Spawn("client", func(p *sim.Proc) {
			request(p, toStore, ReadReq{File: "f", Len: total, Dst: 1, Type: san.Data, Flow: 1}, 1)
			for got := int64(0); got < total; {
				pkt := fromStore.rx.Get(p)
				if first == 0 {
					first = p.Now()
				}
				got += pkt.Size
				last = p.Now()
				fromStore.ReturnCredit()
			}
		})
		eng.Run()
		eng.Shutdown()
		return first, last
	}
	f1, l1 := run(1)
	f2, l2 := run(2)
	// Total completion within 15% either way (same aggregate bandwidth).
	r := float64(l2) / float64(l1)
	if r < 0.85 || r > 1.2 {
		t.Fatalf("striped completion ratio %.3f (1 disk %v, 2 disks %v)", r, l1, l2)
	}
	// First-byte latency is seek-bound in both models.
	if f1 < 8*sim.Millisecond || f2 < 8*sim.Millisecond {
		t.Fatalf("first packet before seek: %v / %v", f1, f2)
	}
}

func TestStripingAlternatesSpindles(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Disk.Disks = 2
	cfg.Disk.StripeUnit = 64 * 1024
	lcfg := san.DefaultLinkConfig()
	toStore := san.NewLink(eng, "to", lcfg)
	fromStore := newEndpoint(san.NewLink(eng, "from", lcfg))
	s := New(eng, 200, "d0", toStore, fromStore.Link, cfg)
	s.AddFile(&File{Name: "f", Size: 256 * 1024})
	s.Start()
	// Two consecutive 64 KB requests land on different spindles and can
	// overlap: the second's data is not delayed behind the first's disk.
	var firstDone, secondDone sim.Time
	eng.Spawn("client", func(p *sim.Proc) {
		request(p, toStore, ReadReq{File: "f", Off: 0, Len: 64 * 1024, Dst: 1, Type: san.Data, Flow: 1}, 1)
		request(p, toStore, ReadReq{File: "f", Off: 64 * 1024, Len: 64 * 1024, Dst: 1, Type: san.Data, Flow: 2}, 2)
		var got1, got2 int64
		for got1 < 64*1024 || got2 < 64*1024 {
			pkt := fromStore.rx.Get(p)
			if pkt.Hdr.Flow == 1 {
				got1 += pkt.Size
				firstDone = p.Now()
			} else {
				got2 += pkt.Size
				secondDone = p.Now()
			}
			fromStore.ReturnCredit()
		}
	})
	eng.Run()
	defer eng.Shutdown()
	// Request 2's spindle pays its own seek; with one aggregate disk it
	// would start only after request 1 finished streaming. Overlap means
	// the gap between completions is below a full 64 KB single-spindle
	// stream time (1.31 ms).
	gap := secondDone - firstDone
	if gap >= 1310*sim.Microsecond {
		t.Fatalf("no spindle overlap: completion gap %v", gap)
	}
}
