package aswitch

import (
	"testing"

	"activesan/internal/san"
	"activesan/internal/sim"
)

func TestDataBufferValidAt(t *testing.T) {
	b := &DataBuffer{size: 512, fillStart: 1000 * sim.Nanosecond, fillRate: 1e9}
	// First 32-byte line valid after 32 ns of fill.
	if got := b.ValidAt(0); got != 1032*sim.Nanosecond {
		t.Fatalf("ValidAt(0) = %v, want 1032ns", got)
	}
	if got := b.ValidAt(31); got != 1032*sim.Nanosecond {
		t.Fatalf("ValidAt(31) = %v, want same line", got)
	}
	if got := b.ValidAt(32); got != 1064*sim.Nanosecond {
		t.Fatalf("ValidAt(32) = %v, want next line", got)
	}
	if got := b.TailValidAt(); got != 1512*sim.Nanosecond {
		t.Fatalf("TailValidAt = %v, want 1512ns", got)
	}
	// Instant buffers (composed locally) are valid at fillStart.
	ib := &DataBuffer{size: 512, fillStart: 7}
	if ib.ValidAt(511) != 7 {
		t.Fatal("instant buffer not valid at fillStart")
	}
}

func TestDBAReserveSplit(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDBA(16, 2)
	var inputs []*DataBuffer
	eng.Spawn("p", func(p *sim.Proc) {
		// 14 input allocations succeed without blocking; the 15th blocks.
		for i := 0; i < 14; i++ {
			inputs = append(inputs, d.AllocInput(p))
		}
		// Output reserve still available.
		ob := d.AllocOutput(p)
		d.Free(ob)
		// Free one input, and the pool must accept another.
		d.Free(inputs[0])
		inputs[0] = d.AllocInput(p)
	})
	eng.Run()
	if len(inputs) != 14 {
		t.Fatalf("allocated %d input buffers", len(inputs))
	}
	if d.InUse() != 14 {
		t.Fatalf("in use = %d, want 14", d.InUse())
	}
	if d.Peak() != 15 {
		t.Fatalf("peak = %d, want 15 (14 input + 1 output)", d.Peak())
	}
}

func TestDBADoubleFreePanics(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDBA(4, 1)
	eng.Spawn("p", func(p *sim.Proc) {
		b := d.AllocInput(p)
		d.Free(b)
		defer func() {
			if recover() == nil {
				t.Error("double free did not panic")
			}
		}()
		d.Free(b)
	})
	eng.Run()
}

func TestATBDirectMapped(t *testing.T) {
	a := NewATB(16)
	b0 := &DataBuffer{addr: 0, size: 512, live: true}
	b16 := &DataBuffer{addr: 16 * 512, size: 512, live: true} // same slot as b0
	a.Install(b0)
	if a.CanInstall(b16) {
		t.Fatal("conflicting slot reported free")
	}
	if got, ok := a.Lookup(100); !ok || got != b0 {
		t.Fatal("lookup inside b0 failed")
	}
	if _, ok := a.Lookup(16 * 512); ok {
		t.Fatal("lookup found unmapped address")
	}
	freed := a.ReleaseBelow(512)
	if len(freed) != 1 || freed[0] != b0 {
		t.Fatalf("ReleaseBelow freed %d buffers", len(freed))
	}
	if !a.CanInstall(b16) {
		t.Fatal("slot still occupied after release")
	}
	a.Install(b16)
	if a.Live() != 1 {
		t.Fatalf("live = %d, want 1", a.Live())
	}
}

func TestATBReleaseBelowPartial(t *testing.T) {
	a := NewATB(16)
	for i := int64(0); i < 4; i++ {
		a.Install(&DataBuffer{addr: i * 512, size: 512, live: true})
	}
	// end = 1024 frees exactly the first two.
	freed := a.ReleaseBelow(1024)
	if len(freed) != 2 {
		t.Fatalf("freed %d, want 2", len(freed))
	}
	if a.Live() != 2 {
		t.Fatalf("live = %d, want 2", a.Live())
	}
}

// endpoint is a test node's view of its switch port: In carries packets
// from the switch into the node's input buffer Rx, Out carries packets
// toward the switch.
type endpoint struct {
	In, Out *san.Link
	Rx      *sim.Queue[*san.Packet]
}

// rig builds an active switch with n endpoint ports; eps[i] is the
// endpoint-side port for node i.
func rig(eng *sim.Engine, n int, cfg Config) (*ActiveSwitch, []endpoint) {
	sw := New(eng, san.NodeID(100), "asw", cfg)
	eps := make([]endpoint, n)
	for i := 0; i < n; i++ {
		up := san.NewLink(eng, "up", cfg.Base.Link)
		down := san.NewLink(eng, "down", cfg.Base.Link)
		sw.AttachPort(i, up, down)
		eps[i] = endpoint{In: down, Out: up, Rx: sim.NewQueue[*san.Packet]()}
		down.SetReceiver(eps[i].Rx.Put)
		sw.SetRoute(san.NodeID(i), i)
	}
	return sw, eps
}

func TestHandlerInvocationAndReply(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(4)
	sw, eps := rig(eng, 4, cfg)
	var gotArgs any
	sw.Register(3, "echo", func(x *Ctx) {
		gotArgs = x.Args()
		x.ReleaseArgs()
		x.Send(SendSpec{Dst: x.Src(), Type: san.Data, Addr: 0x9000, Size: 256, Payload: "reply"})
	})
	sw.Start()
	var reply *san.Packet
	eng.Spawn("host", func(p *sim.Proc) {
		eps[1].Out.Send(p, &san.Packet{
			Hdr:  san.Header{Src: 1, Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 3, Addr: 0x2000, CPUID: -1, Flow: 42, Last: true},
			Size: 64, Payload: "args",
		})
		reply = eps[1].Rx.Get(p)
		eps[1].In.ReturnCredit()
	})
	eng.Run()
	defer eng.Shutdown()
	if gotArgs != "args" {
		t.Fatalf("handler args = %v", gotArgs)
	}
	if reply == nil || reply.Payload != "reply" || reply.Hdr.Addr != 0x9000 {
		t.Fatalf("reply = %+v", reply)
	}
	if sw.ActiveStats().Invocations != 1 {
		t.Fatalf("invocations = %d", sw.ActiveStats().Invocations)
	}
	if sw.DBA().InUse() != 0 {
		t.Fatalf("leaked %d buffers", sw.DBA().InUse())
	}
}

func TestStreamProcessingBackpressure(t *testing.T) {
	// Stream 64 packets (far more than 16 buffers) through a slow handler;
	// credits and the DBA must throttle the producer without deadlock.
	eng := sim.NewEngine()
	cfg := DefaultConfig(2)
	sw, eps := rig(eng, 2, cfg)
	const pkts = 64
	base := int64(0x10000)
	var processed int
	sw.Register(1, "slurp", func(x *Ctx) {
		x.ReleaseArgs() // free the invocation buffer
		cursor := base
		for i := 0; i < pkts; i++ {
			b := x.WaitStream(cursor)
			x.ReadAll(b)
			x.Compute(2000) // slow consumer
			cursor = b.End()
			x.Deallocate(cursor)
			processed++
		}
	})
	sw.Start()
	eng.Spawn("host", func(p *sim.Proc) {
		eps[0].Out.Send(p, &san.Packet{
			Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 1, Addr: 0x8000, Flow: 7, Last: true},
			Size: 32,
		})
		m := &san.Message{Hdr: san.Header{Src: 0, Dst: sw.ID(), Type: san.Data, Addr: base, Flow: 8}, Size: pkts * 512}
		for _, pkt := range m.Packets(nil) {
			eps[0].Out.Send(p, pkt)
		}
	})
	eng.Run()
	defer eng.Shutdown()
	if processed != pkts {
		t.Fatalf("processed %d packets, want %d", processed, pkts)
	}
	if sw.DBA().InUse() != 0 {
		t.Fatalf("leaked %d buffers", sw.DBA().InUse())
	}
	if sw.DBA().Peak() > 16 {
		t.Fatalf("peak buffers %d exceeds hardware", sw.DBA().Peak())
	}
}

func TestHandlerStartsBeforeCopyCompletes(t *testing.T) {
	// The separated control/data paths let the CPU start before the data
	// buffer copy finishes: with per-line valid bits, reading byte 0 must
	// not wait for the packet tail.
	eng := sim.NewEngine()
	cfg := DefaultConfig(2)
	sw, eps := rig(eng, 2, cfg)
	var headRead, tailRead sim.Time
	sw.Register(1, "peek", func(x *Ctx) {
		// Free the argument buffer first: its 0x8000 slot aliases the
		// stream's 0x4000 slot in the direct-mapped ATB.
		x.ReleaseArgs()
		b := x.WaitStream(0x4000)
		x.Peek(b, 4)
		headRead = x.Now()
		x.ReadAll(b)
		tailRead = x.Now()
		x.Deallocate(b.End())
	})
	sw.Start()
	eng.Spawn("host", func(p *sim.Proc) {
		eps[0].Out.Send(p, &san.Packet{
			Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 1, Addr: 0x8000, Flow: 7, Last: true},
			Size: 32,
		})
		eps[0].Out.Send(p, &san.Packet{
			Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.Data, Addr: 0x4000, Flow: 8, Last: true},
			Size: 512,
		})
	})
	eng.Run()
	defer eng.Shutdown()
	if headRead == 0 || tailRead == 0 {
		t.Fatal("handler did not run")
	}
	// Reading the head must happen at least ~400ns before the tail is in.
	if tailRead-headRead < 400*sim.Nanosecond {
		t.Fatalf("head at %v, tail at %v: no overlap of copy and compute", headRead, tailRead)
	}
}

func TestMultiCPUDispatch(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(2)
	cfg.NumCPUs = 4
	sw, eps := rig(eng, 2, cfg)
	ran := make([]int, 4)
	sw.Register(2, "which", func(x *Ctx) {
		ran[x.CPU().ID()]++
		x.ReleaseArgs()
	})
	sw.Start()
	eng.Spawn("host", func(p *sim.Proc) {
		for k := 0; k < 4; k++ {
			eps[0].Out.Send(p, &san.Packet{
				Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 2, CPUID: k, Addr: int64(k) * 512, Flow: int64(k + 1), Last: true},
				Size: 32,
			})
		}
	})
	eng.Run()
	defer eng.Shutdown()
	for k, n := range ran {
		if n != 1 {
			t.Fatalf("CPU %d ran %d invocations, want 1 (all: %v)", k, n, ran)
		}
	}
}

func TestForwardZeroCopy(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(3)
	sw, eps := rig(eng, 3, cfg)
	sw.Register(1, "redirect", func(x *Ctx) {
		x.ReleaseArgs()
		b := x.WaitStream(0)
		x.Forward(SendSpec{Dst: 2, Type: san.Data, Addr: 0x7000, Flow: 99}, b, 0, true)
		x.Deallocate(b.End())
	})
	sw.Start()
	var got *san.Packet
	eng.Spawn("src", func(p *sim.Proc) {
		eps[0].Out.Send(p, &san.Packet{
			Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 1, Addr: 0x8000, Flow: 1, Last: true},
			Size: 16,
		})
		eps[0].Out.Send(p, &san.Packet{
			Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.Data, Addr: 0, Flow: 2, Last: true},
			Size: 512, Payload: []byte("payload"),
		})
	})
	eng.Spawn("dst", func(p *sim.Proc) {
		got = eps[2].Rx.Get(p)
		eps[2].In.ReturnCredit()
	})
	eng.Run()
	defer eng.Shutdown()
	if got == nil {
		t.Fatal("forwarded packet not delivered")
	}
	if got.Hdr.Addr != 0x7000 || !got.Hdr.Last || string(got.Payload.([]byte)) != "payload" {
		t.Fatalf("forwarded packet = %+v", got)
	}
	if got.Hdr.Src != sw.ID() {
		t.Fatal("forwarded packet should carry the switch as source")
	}
}

func TestHandlerState(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(2)
	sw, eps := rig(eng, 2, cfg)
	sw.SetState(4, 0)
	sw.Register(4, "count", func(x *Ctx) {
		x.SetState(x.State().(int) + 1)
		x.ReleaseArgs()
	})
	sw.Start()
	eng.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			eps[0].Out.Send(p, &san.Packet{
				Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 4, Addr: int64(i) * 512, Flow: int64(i + 1), Last: true},
				Size: 32,
			})
		}
	})
	eng.Run()
	defer eng.Shutdown()
	if sw.HandlerState(4) != 3 {
		t.Fatalf("state = %v, want 3", sw.HandlerState(4))
	}
}

func TestNextArrivalInterleavedStreams(t *testing.T) {
	// Two interleaved streams; the handler consumes whatever arrives so
	// neither can starve the other.
	eng := sim.NewEngine()
	cfg := DefaultConfig(3)
	sw, eps := rig(eng, 3, cfg)
	var seen []int64
	const per = 20
	sw.Register(1, "merge", func(x *Ctx) {
		x.ReleaseArgs()
		for i := 0; i < 2*per; i++ {
			b := x.NextArrival()
			x.ReadAll(b)
			seen = append(seen, b.Addr())
			x.DeallocateBuf(b)
		}
	})
	sw.Start()
	eng.Spawn("kick", func(p *sim.Proc) {
		eps[0].Out.Send(p, &san.Packet{
			Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 1, Addr: 1 << 20, Flow: 100, Last: true},
			Size: 16,
		})
	})
	for s := 0; s < 2; s++ {
		s := s
		eng.SpawnAt(sim.Microsecond, "stream", func(p *sim.Proc) {
			base := int64(s) * (1 << 16)
			m := &san.Message{Hdr: san.Header{Src: san.NodeID(s), Dst: sw.ID(), Type: san.Data, Addr: base, Flow: int64(s + 1)}, Size: per * 512}
			for _, pkt := range m.Packets(nil) {
				eps[s].Out.Send(p, pkt)
			}
		})
	}
	eng.Run()
	defer eng.Shutdown()
	if len(seen) != 2*per {
		t.Fatalf("consumed %d buffers, want %d", len(seen), 2*per)
	}
	if sw.DBA().InUse() != 0 {
		t.Fatalf("leaked %d buffers", sw.DBA().InUse())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig(4)
	bad.NumCPUs = 5
	if err := bad.validate(); err == nil {
		t.Fatal("5 CPUs accepted")
	}
	bad = DefaultConfig(4)
	bad.OutReserve = 16
	if err := bad.validate(); err == nil {
		t.Fatal("OutReserve >= NumBuffers accepted")
	}
}

func TestRegisterConflictsPanic(t *testing.T) {
	eng := sim.NewEngine()
	sw := New(eng, 100, "asw", DefaultConfig(2))
	sw.Register(1, "a", func(*Ctx) {})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	sw.Register(1, "b", func(*Ctx) {})
}

func TestUnregisteredHandlerCounted(t *testing.T) {
	// An active message naming an empty jump-table slot must be counted
	// and dropped without wedging the switch.
	eng := sim.NewEngine()
	sw, eps := rig(eng, 2, DefaultConfig(2))
	sw.Register(1, "real", func(x *Ctx) { x.ReleaseArgs() })
	sw.Start()
	eng.Spawn("host", func(p *sim.Proc) {
		eps[0].Out.Send(p, &san.Packet{
			Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 33, Addr: 0, Flow: 1, Last: true},
			Size: 32,
		})
		// A later, registered invocation must still work.
		eps[0].Out.Send(p, &san.Packet{
			Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 1, Addr: 512, Flow: 2, Last: true},
			Size: 32,
		})
	})
	eng.Run()
	defer eng.Shutdown()
	st := sw.ActiveStats()
	if st.Unregistered != 1 {
		t.Fatalf("unregistered = %d, want 1", st.Unregistered)
	}
	if sw.CPU(0).Runs() != 1 {
		t.Fatalf("runs = %d, want 1 (the registered handler)", sw.CPU(0).Runs())
	}
}

func TestHandlerPanicSurfacesWithProcName(t *testing.T) {
	// A buggy handler must fail the simulation visibly (engine-context
	// panic), not hang or kill the process silently.
	eng := sim.NewEngine()
	sw, eps := rig(eng, 2, DefaultConfig(2))
	sw.Register(1, "buggy", func(x *Ctx) { panic("handler bug") })
	sw.Start()
	eng.Spawn("host", func(p *sim.Proc) {
		eps[0].Out.Send(p, &san.Packet{
			Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 1, Flow: 1, Last: true},
			Size: 32,
		})
	})
	defer func() {
		eng.Shutdown()
		if recover() == nil {
			t.Fatal("handler panic did not surface")
		}
	}()
	eng.Run()
}

func TestPerHandlerStats(t *testing.T) {
	eng := sim.NewEngine()
	sw, eps := rig(eng, 2, DefaultConfig(2))
	sw.Register(5, "a", func(x *Ctx) {
		x.ReleaseArgs()
		x.Send(SendSpec{Dst: x.Src(), Type: san.Data, Addr: 0x100, Size: 300, Flow: 9})
	})
	sw.Register(6, "b", func(x *Ctx) { x.ReleaseArgs() })
	sw.Start()
	eng.Spawn("host", func(p *sim.Proc) {
		for i, id := range []int{5, 5, 6} {
			eps[0].Out.Send(p, &san.Packet{
				Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: id, Addr: int64(i) * 512, Flow: int64(i + 1), Last: true},
				Size: 32,
			})
		}
	})
	eng.Spawn("sink", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			eps[0].Rx.Get(p)
			eps[0].In.ReturnCredit()
		}
	})
	eng.Run()
	defer eng.Shutdown()
	a := sw.HandlerStatsFor(5)
	b := sw.HandlerStatsFor(6)
	if a.Invocations != 2 || a.MessagesSent != 2 || a.BytesSent != 600 {
		t.Fatalf("handler 5 stats = %+v", a)
	}
	if b.Invocations != 1 || b.MessagesSent != 0 {
		t.Fatalf("handler 6 stats = %+v", b)
	}
	if sw.HandlerStatsFor(99).Invocations != 0 {
		t.Fatal("out-of-range id not zero")
	}
}

func TestReadAtOutOfRangePanics(t *testing.T) {
	eng := sim.NewEngine()
	sw, eps := rig(eng, 2, DefaultConfig(2))
	sw.Register(1, "oob", func(x *Ctx) {
		b := x.WaitStream(x.BaseAddr())
		x.ReadAt(b, 0, b.Size()+1) // one past the end
	})
	sw.Start()
	eng.Spawn("host", func(p *sim.Proc) {
		eps[0].Out.Send(p, &san.Packet{
			Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 1, Flow: 1, Last: true},
			Size: 64,
		})
	})
	defer func() {
		eng.Shutdown()
		if recover() == nil {
			t.Fatal("out-of-range ReadAt did not panic")
		}
	}()
	eng.Run()
}

func TestPeekClampsToBuffer(t *testing.T) {
	eng := sim.NewEngine()
	sw, eps := rig(eng, 2, DefaultConfig(2))
	ok := false
	sw.Register(1, "peek", func(x *Ctx) {
		b := x.WaitStream(x.BaseAddr())
		x.Peek(b, 10_000) // clamps to the 64-byte buffer
		ok = true
		x.DeallocateBuf(b)
	})
	sw.Start()
	eng.Spawn("host", func(p *sim.Proc) {
		eps[0].Out.Send(p, &san.Packet{
			Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 1, Flow: 1, Last: true},
			Size: 64,
		})
	})
	eng.Run()
	defer eng.Shutdown()
	if !ok {
		t.Fatal("peek never completed")
	}
}

func TestDeallocateReturnsCount(t *testing.T) {
	eng := sim.NewEngine()
	sw, eps := rig(eng, 2, DefaultConfig(2))
	var freed []int
	sw.Register(1, "count", func(x *Ctx) {
		x.ReleaseArgs()
		// Wait for three packets, then free them all with one call.
		for _, a := range []int64{0x10000, 0x10200, 0x10400} {
			x.WaitStream(a)
		}
		freed = append(freed, x.Deallocate(0x10000+3*512))
		freed = append(freed, x.Deallocate(0x10000+3*512)) // idempotent
	})
	sw.Start()
	eng.Spawn("host", func(p *sim.Proc) {
		eps[0].Out.Send(p, &san.Packet{
			Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 1, Addr: 0x8000, Flow: 1, Last: true},
			Size: 16,
		})
		m := &san.Message{Hdr: san.Header{Src: 0, Dst: sw.ID(), Type: san.Data, Addr: 0x10000, Flow: 2}, Size: 3 * 512}
		for _, pkt := range m.Packets(nil) {
			eps[0].Out.Send(p, pkt)
		}
	})
	eng.Run()
	defer eng.Shutdown()
	if len(freed) != 2 || freed[0] != 3 || freed[1] != 0 {
		t.Fatalf("freed = %v, want [3 0]", freed)
	}
}

func TestRoundRobinDispatch(t *testing.T) {
	// ActiveMsg with CPUID -1 rotates across the switch CPUs.
	eng := sim.NewEngine()
	cfg := DefaultConfig(2)
	cfg.NumCPUs = 2
	sw, eps := rig(eng, 2, cfg)
	var ran []int
	sw.Register(2, "which", func(x *Ctx) {
		ran = append(ran, x.CPU().ID())
		x.ReleaseArgs()
	})
	sw.Start()
	eng.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			eps[0].Out.Send(p, &san.Packet{
				Hdr:  san.Header{Src: 0, Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 2, CPUID: -1, Addr: int64(i) * 512, Flow: int64(i + 1), Last: true},
				Size: 32,
			})
		}
	})
	eng.Run()
	defer eng.Shutdown()
	if len(ran) != 4 {
		t.Fatalf("ran = %v", ran)
	}
	counts := map[int]int{}
	for _, c := range ran {
		counts[c]++
	}
	if counts[0] != 2 || counts[1] != 2 {
		t.Fatalf("round robin skewed: %v", ran)
	}
}
