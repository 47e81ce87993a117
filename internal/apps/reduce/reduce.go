// Package reduce reproduces the paper's collective-reduction benchmarks:
// Reduce-to-one and Distributed Reduce over 512-byte vectors on up to 128
// nodes. The normal case implements the minimum-spanning-tree (binomial)
// algorithm on the hosts, whose latency lower bound is ceil(log2 p)(a+l);
// the active case sends every vector as an active message to its leaf
// switch, reduces inside the switch tree (arity N/2 = 8), and delivers the
// result with latency a + g + ceil(log_{N/2} p) d — the paper's Figures
// 15/16, with speedups up to ~5.6x/5.9x at 128 nodes.
package reduce

import (
	"fmt"
	"time"

	"activesan/internal/apps"
	"activesan/internal/aswitch"
	"activesan/internal/cache"
	"activesan/internal/cluster"
	"activesan/internal/host"
	"activesan/internal/par"
	"activesan/internal/san"
	"activesan/internal/sim"
	"activesan/internal/stats"
)

// Kind selects the reduction variant.
type Kind int

// The paper evaluates Reduce-to-one and Distributed Reduce and notes that
// Reduce-to-all "is similar to Reduce-to-one"; all three are implemented.
const (
	ToOne Kind = iota
	Distributed
	ToAll
)

func (k Kind) String() string {
	switch k {
	case Distributed:
		return "distributed-reduce"
	case ToAll:
		return "reduce-to-all"
	default:
		return "reduce-to-one"
	}
}

// Op is the reduction operator. The paper: "often maximum, minimum, sum,
// product, or logical bit-wise operations"; the evaluation uses addition.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
	OpProd
	OpOr
	OpAnd
)

func (o Op) String() string {
	switch o {
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	case OpProd:
		return "prod"
	case OpOr:
		return "or"
	case OpAnd:
		return "and"
	default:
		return "sum"
	}
}

// Apply combines two elements.
func (o Op) Apply(a, b int64) int64 {
	switch o {
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	case OpProd:
		return a * b
	case OpOr:
		return a | b
	case OpAnd:
		return a & b
	default:
		return a + b
	}
}

// Identity is the operator's neutral element.
func (o Op) Identity() int64 {
	switch o {
	case OpMax:
		return -1 << 62
	case OpMin:
		return 1<<62 - 1
	case OpProd:
		return 1
	case OpOr:
		return 0
	case OpAnd:
		return -1
	default:
		return 0
	}
}

// Params sizes the workload and calibrates costs.
type Params struct {
	// VectorBytes is each node's contribution (paper: 512).
	VectorBytes int64
	// Elems is the vector length in int64 values.
	Elems int
	// Op is the combining operator (paper's evaluation: addition).
	Op Op

	// HostAddInstr is the host's per-element combine cost.
	HostAddInstr int64
	// SwitchAddCycles is the switch CPU's per-element combine cost.
	SwitchAddCycles int64
}

// DefaultParams returns the paper's 512-byte vectors.
func DefaultParams() Params {
	return Params{
		VectorBytes:     512,
		Elems:           64,
		HostAddInstr:    4,
		SwitchAddCycles: 1,
	}
}

// Vector is node j's deterministic input vector.
func Vector(j int, elems int) []int64 {
	v := make([]int64, elems)
	for i := range v {
		v[i] = int64(apps.Mix64(uint64(j)<<20|uint64(i)) % 1000)
	}
	return v
}

// ExpectedSum is the addition oracle (the paper's operator).
func ExpectedSum(p, elems int) []int64 { return Expected(OpSum, p, elems) }

// Expected is the reduction oracle for any operator.
func Expected(op Op, p, elems int) []int64 {
	out := make([]int64, elems)
	for i := range out {
		out[i] = op.Identity()
	}
	for j := 0; j < p; j++ {
		for i, v := range Vector(j, elems) {
			out[i] = op.Apply(out[i], v)
		}
	}
	return out
}

const handlerID = 16

const (
	resultFlow = 0x7050
	mstFlow    = 0x7060 // + round index
)

// swState is one switch's per-handler reduction state.
type swState struct {
	acc      []int64
	got      int
	expected int
	parent   san.NodeID
	argAddr  int64 // mapped address this switch writes at its parent
	kind     Kind
	hosts    []san.NodeID
	vecBytes int64
	accBase  int64 // switch-memory address of the accumulator
}

// sliceMsg carries a distributed-reduce slice.
type sliceMsg struct {
	Lo   int
	Vals []int64
}

// Result is one reduction run's outcome. EngineWall is the host wall-clock
// the simulation run phase took (the Engine.Run or Group.Run call alone, no
// cluster construction or teardown) — what the partitioned-engine benchmarks
// compare.
type Result struct {
	Latency    sim.Time
	Final      []int64
	Correct    bool
	EngineWall time.Duration
}

// sliceBounds gives node j's share [lo, hi) of an elems-long vector.
func sliceBounds(j, p, elems int) (lo, hi int) {
	lo = j * elems / p
	hi = (j + 1) * elems / p
	return lo, hi
}

// Run executes one reduction and returns its latency and verified result.
// The cluster honors the process-wide -topology default (tree or fat tree).
func Run(kind Kind, active bool, p int, prm Params) Result {
	eng := sim.NewEngine()
	c := cluster.BuildCollective(eng, cluster.DefaultTreeConfig(p))
	return RunOn(eng, c, kind, active, p, prm)
}

// RunOn executes the reduction on a prebuilt cluster with a populated Tree
// (a reduction tree or a fat tree's aggregation overlay). In the active
// case the combine handler is placed per stage: only switches participating
// in the aggregation tree — leaves/edges ingesting host vectors, interior
// aggregation switches combining partials, the root delivering — get the
// handler; pass-through switches stay conventional.
func RunOn(eng *sim.Engine, c *cluster.Cluster, kind Kind, active bool, p int, prm Params) Result {
	elems := prm.Elems

	hostIDs := make([]san.NodeID, p)
	for j, h := range c.Hosts {
		hostIDs[j] = h.ID()
	}

	// Assign each contributor (host or child switch) a distinct argument
	// slot at its parent so vectors from different ports admit in parallel.
	slot := make(map[san.NodeID]int64)
	if active {
		perParent := make(map[san.NodeID]int64)
		for _, h := range c.Hosts {
			leaf := c.Tree.HostLeaf[h.ID()]
			slot[h.ID()] = perParent[leaf]
			perParent[leaf]++
		}
		for _, sw := range c.Switches {
			if par := c.Tree.Parent[sw.ID()]; par != san.NoNode {
				slot[sw.ID()] = perParent[par]
				perParent[par]++
			}
		}
		for _, sw := range c.Switches {
			if c.Tree.Children[sw.ID()] == 0 {
				continue // not in the aggregation tree: no handler placed
			}
			acc := make([]int64, elems)
			for i := range acc {
				acc[i] = prm.Op.Identity()
			}
			st := &swState{
				acc:      acc,
				expected: c.Tree.Children[sw.ID()],
				parent:   c.Tree.Parent[sw.ID()],
				argAddr:  slot[sw.ID()] * san.MTU,
				kind:     kind,
				hosts:    hostIDs,
				vecBytes: prm.VectorBytes,
				accBase:  sw.Space().Alloc(prm.VectorBytes, 64),
			}
			sw.SetState(handlerID, st)
			sw.Register(handlerID, "reduce", reduceHandler(prm))
		}
	}

	c.Start()
	final := make([]int64, elems)
	var finish sim.Time
	var wall time.Duration
	if c.Group == nil {
		setFinish := func(t sim.Time) {
			if t > finish {
				finish = t
			}
		}
		var wg sim.WaitGroup
		wg.Add(p)
		for j := 0; j < p; j++ {
			j := j
			h := c.Host(j)
			eng.Spawn(fmt.Sprintf("red-h%d", j), func(proc *sim.Proc) {
				defer wg.Done()
				if active {
					runActiveHost(proc, c, h, j, p, kind, prm, slot[h.ID()], final, setFinish)
				} else {
					runMSTHost(proc, c, h, j, p, kind, prm, hostIDs, final, setFinish)
				}
			})
		}
		eng.Spawn("red-main", func(proc *sim.Proc) { wg.Wait(proc) })
		zr := time.Now()
		eng.Run()
		wall = time.Since(zr)
	} else {
		// Partitioned: each host's collective process runs on its own
		// partition's engine. Group.Run drains every partition, so no
		// cross-engine WaitGroup is needed; finish times land in per-host
		// slots (each touched only by its own partition) and fold after the
		// barrier loop ends. Hosts writing `final` already touch disjoint
		// elements (or only host 0 writes), so the snapshot is race-free.
		finishes := make([]sim.Time, p)
		for j := 0; j < p; j++ {
			j := j
			h := c.Host(j)
			c.EngineFor(h.ID()).Spawn(fmt.Sprintf("red-h%d", j), func(proc *sim.Proc) {
				setFinish := func(t sim.Time) {
					if t > finishes[j] {
						finishes[j] = t
					}
				}
				if active {
					runActiveHost(proc, c, h, j, p, kind, prm, slot[h.ID()], final, setFinish)
				} else {
					runMSTHost(proc, c, h, j, p, kind, prm, hostIDs, final, setFinish)
				}
			})
		}
		zr := time.Now()
		c.Group.Run()
		wall = time.Since(zr)
		for _, t := range finishes {
			if t > finish {
				finish = t
			}
		}
	}
	c.Shutdown()

	want := Expected(prm.Op, p, elems)
	ok := true
	for i := range want {
		if final[i] != want[i] {
			ok = false
			break
		}
	}
	return Result{Latency: finish, Final: final, Correct: ok, EngineWall: wall}
}

// reduceHandler combines arriving vectors and propagates partials up the
// switch tree; the root delivers per the reduction kind.
func reduceHandler(prm Params) aswitch.HandlerFunc {
	return func(x *aswitch.Ctx) {
		st := x.State().(*swState)
		vec := x.Args().([]int64)
		// Read the vector out of the data buffer (valid-bit stalls model
		// the overlap of copy and compute), then release it.
		if b, ok := x.CPU().ATB().Lookup(x.BaseAddr()); ok {
			x.ReadAll(b)
			x.DeallocateBuf(b)
		}
		x.Compute(prm.SwitchAddCycles * int64(len(vec)))
		for i, v := range vec {
			// The accumulator lives in switch memory; one line in four is
			// touched architecturally (it fits the D-cache).
			if i%4 == 0 {
				x.MemLoad(st.accBase + int64(i)*8)
			}
			st.acc[i] = prm.Op.Apply(st.acc[i], v)
		}
		st.got++
		if st.got < st.expected {
			return
		}
		acc := append([]int64(nil), st.acc...)
		if st.parent != san.NoNode {
			x.Send(aswitch.SendSpec{
				Dst: st.parent, Type: san.ActiveMsg, HandlerID: handlerID,
				Addr: st.argAddr, Size: st.vecBytes, Payload: acc,
			})
			return
		}
		if st.kind == ToOne {
			x.Send(aswitch.SendSpec{
				Dst: st.hosts[0], Type: san.Data, Addr: 0x1000,
				Size: st.vecBytes, Flow: resultFlow, Payload: acc,
			})
			return
		}
		if st.kind == ToAll {
			// Broadcast the whole vector to every node.
			for _, dst := range st.hosts {
				x.Send(aswitch.SendSpec{
					Dst: dst, Type: san.Data, Addr: 0x1000,
					Size: st.vecBytes, Flow: resultFlow, Payload: acc,
				})
			}
			return
		}
		// Distributed: node j receives its slice of the result.
		p := len(st.hosts)
		for j, dst := range st.hosts {
			lo, hi := sliceBounds(j, p, len(acc))
			size := int64(hi-lo) * 8
			if size <= 0 {
				size = 8
			}
			x.Send(aswitch.SendSpec{
				Dst: dst, Type: san.Data, Addr: 0x1000,
				Size: size, Flow: resultFlow, Payload: sliceMsg{Lo: lo, Vals: acc[lo:hi]},
			})
		}
	}
}

// runActiveHost sends the node's vector to its leaf switch and awaits any
// result due to it.
func runActiveHost(p *sim.Proc, c *cluster.Cluster, h *host.Host, j, nodes int, kind Kind,
	prm Params, argSlot int64, final []int64, setFinish func(sim.Time)) {
	vecRegion := h.Space().Alloc(prm.VectorBytes, 64)
	vec := Vector(j, prm.Elems)
	h.CPU().TouchRange(p, vecRegion, prm.VectorBytes, cache.Load)
	h.SendMessage(p, &san.Message{
		Hdr: san.Header{
			Dst: c.Tree.HostLeaf[h.ID()], Type: san.ActiveMsg,
			HandlerID: handlerID, Addr: argSlot * san.MTU,
		},
		Size:    prm.VectorBytes,
		Payload: vec,
	}, vecRegion)

	root := c.Tree.Root
	switch kind {
	case ToOne:
		if j != 0 {
			return
		}
		comp := h.RecvFlow(p, root, resultFlow)
		h.CPU().BusyFor(p, h.RecvCost())
		copy(final, comp.Payloads[0].([]int64))
		setFinish(p.Now())
	case ToAll:
		comp := h.RecvFlow(p, root, resultFlow)
		h.CPU().BusyFor(p, h.RecvCost())
		if j == 0 {
			copy(final, comp.Payloads[0].([]int64))
		}
		setFinish(p.Now())
	case Distributed:
		comp := h.RecvFlow(p, root, resultFlow)
		h.CPU().BusyFor(p, h.RecvCost())
		s := comp.Payloads[0].(sliceMsg)
		copy(final[s.Lo:], s.Vals)
		setFinish(p.Now())
	}
}

// runMSTHost executes one node of the binomial (MST) reduction; for
// Distributed, node 0 scatters the slices afterwards.
func runMSTHost(p *sim.Proc, c *cluster.Cluster, h *host.Host, j, nodes int, kind Kind,
	prm Params, hostIDs []san.NodeID, final []int64, setFinish func(sim.Time)) {
	vecRegion := h.Space().Alloc(prm.VectorBytes, 64)
	vec := Vector(j, prm.Elems)
	h.CPU().TouchRange(p, vecRegion, prm.VectorBytes, cache.Load)

	for k := 1; k < nodes; k <<= 1 {
		if j&k != 0 {
			h.SendMessage(p, &san.Message{
				Hdr:     san.Header{Dst: hostIDs[j-k], Type: san.Data, Addr: 0x1000, Flow: mstFlow + int64(k)},
				Size:    prm.VectorBytes,
				Payload: vec,
			}, vecRegion)
			break
		}
		if j+k < nodes {
			comp := h.RecvFlow(p, hostIDs[j+k], mstFlow+int64(k))
			h.CPU().BusyFor(p, h.RecvCost())
			other := comp.Payloads[0].([]int64)
			// Read the freshly DMA'd vector (cold lines) and combine.
			h.CPU().TouchRange(p, 0x1000, prm.VectorBytes, cache.Load)
			h.CPU().TouchRange(p, vecRegion, prm.VectorBytes, cache.Load)
			h.CPU().Compute(p, prm.HostAddInstr*int64(prm.Elems))
			for i := range vec {
				vec[i] = prm.Op.Apply(vec[i], other[i])
			}
		}
	}

	if kind == ToOne {
		if j == 0 {
			copy(final, vec)
			setFinish(p.Now())
		}
		return
	}

	if kind == ToAll {
		// Binomial broadcast of the full vector down the MST.
		span := 1
		for span < nodes {
			span <<= 1
		}
		hold := vec
		if j != 0 {
			src := j &^ (j & -j)
			comp := h.RecvFlow(p, hostIDs[src], resultFlow+int64(j))
			h.CPU().BusyFor(p, h.RecvCost())
			hold = comp.Payloads[0].([]int64)
		}
		for k := span >> 1; k >= 1; k >>= 1 {
			if j%k != 0 || j&k != 0 {
				continue
			}
			d := j + k
			if d >= nodes {
				continue
			}
			h.SendMessage(p, &san.Message{
				Hdr:     san.Header{Dst: hostIDs[d], Type: san.Data, Addr: 0x1000, Flow: resultFlow + int64(d)},
				Size:    prm.VectorBytes,
				Payload: hold,
			}, vecRegion)
		}
		if j == 0 {
			copy(final, hold)
		}
		setFinish(p.Now())
		return
	}

	// Distributed: binomial scatter down the same MST. Node j owns range
	// [j, j+span) once it holds data; each round it hands the upper half
	// of its range to node j+k.
	span := 1
	for span < nodes {
		span <<= 1
	}
	var hold []int64
	if j == 0 {
		hold = vec
	} else {
		// Wait for our range's data from the binomial parent.
		src := j &^ (j & -j) // clear lowest set bit
		comp := h.RecvFlow(p, hostIDs[src], resultFlow+int64(j))
		h.CPU().BusyFor(p, h.RecvCost())
		s := comp.Payloads[0].(sliceMsg)
		hold = make([]int64, prm.Elems)
		copy(hold[s.Lo:], s.Vals)
	}
	for k := span >> 1; k >= 1; k >>= 1 {
		if j%k != 0 || j&k != 0 {
			continue
		}
		d := j + k
		if d >= nodes {
			continue
		}
		// Send node d the data for range [d, d+k).
		lo, _ := sliceBounds(d, nodes, prm.Elems)
		end := d + k
		if end > nodes {
			end = nodes
		}
		_, hi := sliceBounds(end-1, nodes, prm.Elems)
		size := int64(hi-lo) * 8
		if size <= 0 {
			size = 8
		}
		h.SendMessage(p, &san.Message{
			Hdr:     san.Header{Dst: hostIDs[d], Type: san.Data, Addr: 0x1000, Flow: resultFlow + int64(d)},
			Size:    size,
			Payload: sliceMsg{Lo: lo, Vals: hold[lo:hi]},
		}, vecRegion)
	}
	lo, hi := sliceBounds(j, nodes, prm.Elems)
	copy(final[lo:hi], hold[lo:hi])
	setFinish(p.Now())
}

// Sweep runs normal and active reductions over the node counts and builds
// the paper's latency-vs-nodes figure with a speedup series.
func Sweep(kind Kind, nodeCounts []int, prm Params) *stats.Result {
	return SweepParallel(kind, nodeCounts, prm, 1)
}

// SweepParallel is Sweep with the node counts fanned over a pool of
// `workers` goroutines (each point simulates on its own engine). Series
// points stay in nodeCounts order whatever the completion order, so the
// result is identical to a sequential sweep. workers < 1 selects
// runtime.NumCPU().
func SweepParallel(kind Kind, nodeCounts []int, prm Params, workers int) *stats.Result {
	id := "fig15"
	if kind == Distributed {
		id = "fig16"
	}
	res := &stats.Result{ID: id, Title: fmt.Sprintf("Collective %s: latency vs nodes", kind)}
	points := make([]struct{ normal, active Result }, len(nodeCounts))
	par.Do(len(nodeCounts), workers, func(i int) {
		points[i].normal = Run(kind, false, nodeCounts[i], prm)
		points[i].active = Run(kind, true, nodeCounts[i], prm)
	})
	var normal, active stats.Series
	normal.Name = "normal (MST)"
	active.Name = "active (switch tree)"
	for i, p := range nodeCounts {
		rn, ra := points[i].normal, points[i].active
		if !rn.Correct || !ra.Correct {
			res.Notes = append(res.Notes, fmt.Sprintf("p=%d: INCORRECT result (normal ok=%v, active ok=%v)", p, rn.Correct, ra.Correct))
		}
		normal.Add(float64(p), rn.Latency.Micros())
		active.Add(float64(p), ra.Latency.Micros())
	}
	sp := stats.SpeedupSeries("speedup", normal, active)
	res.Series = []stats.Series{normal, active, sp}
	res.Notes = append(res.Notes, fmt.Sprintf("max speedup %.2fx", sp.MaxY()))
	return res
}

// DefaultNodeCounts is the paper's sweep (results shown up to 128 nodes).
var DefaultNodeCounts = []int{2, 4, 8, 16, 32, 64, 128}

// pipeVec is a round-tagged vector for pipelined reductions.
type pipeVec struct {
	Round int
	Vals  []int64
}

// pipeState tracks per-round partial sums at one switch.
type pipeState struct {
	rounds   map[int]*roundAcc
	expected int
	parent   san.NodeID
	argAddr  int64
	hosts    []san.NodeID
	vecBytes int64
	accBase  int64
}

type roundAcc struct {
	acc []int64
	got int
}

// PipelinedResult reports a multi-round active reduction.
type PipelinedResult struct {
	Total    sim.Time
	PerRound sim.Time
	Correct  bool
}

// RoundVector is node j's input for round r.
func RoundVector(j, r, elems int) []int64 {
	v := make([]int64, elems)
	for i := range v {
		v[i] = int64(apps.Mix64(uint64(j)<<24|uint64(r)<<12|uint64(i)) % 1000)
	}
	return v
}

// RunPipelined streams `rounds` back-to-back reduce-to-one operations
// through the switch tree. Because each tree level works on round r+1
// while the next level combines round r — "the switch can overlap the
// switch CPU execution with its duties as a normal switch" — amortized
// per-round time beats the isolated latency.
func RunPipelined(p int, rounds int, prm Params) PipelinedResult {
	eng := sim.NewEngine()
	c := cluster.BuildCollective(eng, cluster.DefaultTreeConfig(p))
	elems := prm.Elems

	hostIDs := make([]san.NodeID, p)
	for j, h := range c.Hosts {
		hostIDs[j] = h.ID()
	}
	slot := make(map[san.NodeID]int64)
	perParent := make(map[san.NodeID]int64)
	for _, h := range c.Hosts {
		leaf := c.Tree.HostLeaf[h.ID()]
		slot[h.ID()] = perParent[leaf]
		perParent[leaf]++
	}
	for _, sw := range c.Switches {
		if par := c.Tree.Parent[sw.ID()]; par != san.NoNode {
			slot[sw.ID()] = perParent[par]
			perParent[par]++
		}
	}
	for _, sw := range c.Switches {
		if c.Tree.Children[sw.ID()] == 0 {
			continue // not in the aggregation tree: no handler placed
		}
		st := &pipeState{
			rounds:   make(map[int]*roundAcc),
			expected: c.Tree.Children[sw.ID()],
			parent:   c.Tree.Parent[sw.ID()],
			argAddr:  slot[sw.ID()] * san.MTU,
			hosts:    hostIDs,
			vecBytes: prm.VectorBytes,
			accBase:  sw.Space().Alloc(prm.VectorBytes*4, 64),
		}
		sw.SetState(handlerID, st)
		sw.Register(handlerID, "reduce-pipe", func(x *aswitch.Ctx) {
			s := x.State().(*pipeState)
			pv := x.Args().(pipeVec)
			if b, ok := x.CPU().ATB().Lookup(x.BaseAddr()); ok {
				x.ReadAll(b)
				x.DeallocateBuf(b)
			}
			ra := s.rounds[pv.Round]
			if ra == nil {
				ra = &roundAcc{acc: make([]int64, elems)}
				s.rounds[pv.Round] = ra
			}
			x.Compute(prm.SwitchAddCycles * int64(elems))
			for i, v := range pv.Vals {
				// Same accumulator D-cache charging as the isolated
				// handler; rounds rotate through a small arena.
				if i%4 == 0 {
					x.MemLoad(s.accBase + int64(pv.Round%4)*s.vecBytes + int64(i)*8)
				}
				ra.acc[i] += v
			}
			ra.got++
			if ra.got < s.expected {
				return
			}
			out := pipeVec{Round: pv.Round, Vals: ra.acc}
			delete(s.rounds, pv.Round)
			if s.parent != san.NoNode {
				x.Send(aswitch.SendSpec{
					Dst: s.parent, Type: san.ActiveMsg, HandlerID: handlerID,
					Addr: s.argAddr, Size: s.vecBytes, Payload: out,
				})
				return
			}
			x.Send(aswitch.SendSpec{
				Dst: s.hosts[0], Type: san.Data, Addr: 0x1000,
				Size: s.vecBytes, Flow: resultFlow, Payload: out,
			})
		})
	}
	c.Start()

	correct := true
	var finish sim.Time
	var wg sim.WaitGroup
	wg.Add(p)
	for j := 0; j < p; j++ {
		j := j
		h := c.Host(j)
		eng.Spawn(fmt.Sprintf("pipe-h%d", j), func(proc *sim.Proc) {
			defer wg.Done()
			leaf := c.Tree.HostLeaf[h.ID()]
			vecRegion := h.Space().Alloc(prm.VectorBytes, 64)
			for r := 0; r < rounds; r++ {
				// Read this round's vector out of host memory first, as
				// the isolated path does.
				h.CPU().TouchRange(proc, vecRegion, prm.VectorBytes, cache.Load)
				h.SendMessage(proc, &san.Message{
					Hdr: san.Header{
						Dst: leaf, Type: san.ActiveMsg,
						HandlerID: handlerID, Addr: slot[h.ID()] * san.MTU,
					},
					Size:    prm.VectorBytes,
					Payload: pipeVec{Round: r, Vals: RoundVector(j, r, elems)},
				}, 0)
			}
			if j != 0 {
				return
			}
			for r := 0; r < rounds; r++ {
				comp := h.RecvFlow(proc, c.Tree.Root, resultFlow)
				h.CPU().BusyFor(proc, h.RecvCost())
				pv := comp.Payloads[0].(pipeVec)
				want := make([]int64, elems)
				for src := 0; src < p; src++ {
					for i, v := range RoundVector(src, pv.Round, elems) {
						want[i] += v
					}
				}
				for i := range want {
					if pv.Vals[i] != want[i] {
						correct = false
					}
				}
			}
			finish = proc.Now()
		})
	}
	eng.Spawn("pipe-main", func(proc *sim.Proc) { wg.Wait(proc) })
	eng.Run()
	c.Shutdown()
	return PipelinedResult{
		Total:    finish,
		PerRound: finish / sim.Time(rounds),
		Correct:  correct,
	}
}

// RunWithInterrupts repeats a reduction with interrupt-driven receives
// instead of polling — the paper notes its polling choice "favors the
// normal case", and this quantifies by how much.
func RunWithInterrupts(kind Kind, active bool, p int, prm Params) Result {
	eng := sim.NewEngine()
	cfg := cluster.DefaultTreeConfig(p)
	cfg.Host.OS.InterruptRecv = true
	return RunOn(eng, cluster.BuildCollective(eng, cfg), kind, active, p, prm)
}
