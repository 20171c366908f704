package bench

import (
	"fmt"
	"math/rand"

	"pmemlog/internal/mem"
	"pmemlog/internal/sim"
)

// SSCA2 is the paper's graph microbenchmark [Table III / Bader & Madduri]:
// "a transactional implementation of SSCA 2.2, performing several analyses
// of [a] large, scale-free graph." We model the benchmark's dominant
// transactional kernels: scale-free edge insertion (kernel 1 construction)
// and per-vertex neighborhood analysis that updates vertex metadata.
//
// NVRAM layout per vertex (line aligned):
//
//	[0] degree
//	[1] metric (analysis result accumulator)
//	[2 + 2i], [3 + 2i] neighbor i, weight i   (capacity edgeCap)
const ssEdgeCap = 14 // adjacency capacity per vertex

type SSCA2 struct {
	cfg      Config
	sys      *sim.System
	vertices mem.Addr
	nVerts   int
}

// NewSSCA2 builds the workload. Elements is the vertex count.
func NewSSCA2(cfg Config) *SSCA2 { return &SSCA2{cfg: cfg, nVerts: cfg.Elements} }

// Name implements Workload.
func (g *SSCA2) Name() string { return "ssca2-" + g.cfg.Values.String() }

func ssVertexWords() int { return 2 + 2*ssEdgeCap }

func (g *SSCA2) vertex(v int) mem.Addr {
	stride := (ssVertexWords()*mem.WordSize + mem.LineSize - 1) &^ (mem.LineSize - 1)
	return g.vertices + mem.Addr(v*stride)
}

// Setup implements Workload: allocates the vertex table and seeds a sparse
// scale-free graph (untimed).
func (g *SSCA2) Setup(s *sim.System) error {
	g.sys = s
	stride := (ssVertexWords()*mem.WordSize + mem.LineSize - 1) &^ (mem.LineSize - 1)
	base, err := s.Heap().AllocLine(uint64(g.nVerts * stride))
	if err != nil {
		return fmt.Errorf("ssca2: %w", err)
	}
	g.vertices = base
	setup := s.SetupCtx()
	for v := 0; v < g.nVerts; v++ {
		setup.Store(g.vertex(v), 0)              // degree
		setup.Store(g.vertex(v)+mem.WordSize, 0) // metric
	}
	rng := rand.New(rand.NewSource(g.cfg.Seed + 99))
	per := g.nVerts / g.cfg.Threads
	for v := 0; v < g.nVerts; v++ {
		deg := rng.Intn(ssEdgeCap / 2)
		tBase := (v / per) * per // keep edges within the owner's partition
		for e := 0; e < deg; e++ {
			g.InsertEdge(setup, v, tBase+rng.Intn(per), uint64(rng.Intn(100)))
		}
	}
	return nil
}

func (g *SSCA2) slotAddr(v, slot int) mem.Addr {
	return g.vertex(v) + mem.Addr((2+2*slot)*mem.WordSize)
}

// InsertEdge is the edge-insertion transaction: append (v->to, weight) to
// v's adjacency (overwriting a pseudo-random slot when full) and bump the
// degree and metric.
func (g *SSCA2) InsertEdge(ctx sim.Ctx, v, to int, weight uint64) {
	ctx.TxBegin()
	defer ctx.TxCommit()
	va := g.vertex(v)
	deg := int(ctx.Load(va))
	// RMAT coordinate generation, permutation and weight math dominate
	// SSCA2's kernel-1 instruction mix (the paper: "the overhead of
	// manipulating the data structures outweigh[s] that of the log").
	ctx.Compute(45)
	slot := deg
	if deg >= ssEdgeCap {
		slot = (v*31 + to) % ssEdgeCap // replace, keeping the graph bounded
	} else {
		ctx.Store(va, mem.Word(deg+1))
	}
	ctx.Store(g.slotAddr(v, slot), mem.Word(to))
	ctx.Store(g.slotAddr(v, slot)+mem.WordSize, mem.Word(weight))
	m := ctx.Load(va + mem.WordSize)
	ctx.Store(va+mem.WordSize, m+mem.Word(weight))
}

// Analyze is the neighborhood-analysis transaction: walk v's adjacency,
// sum weights (compute-heavy), store the result into the metric word.
func (g *SSCA2) Analyze(ctx sim.Ctx, v int) mem.Word {
	ctx.TxBegin()
	defer ctx.TxCommit()
	va := g.vertex(v)
	deg := int(ctx.Load(va))
	if deg > ssEdgeCap {
		deg = ssEdgeCap
	}
	var sum mem.Word
	for e := 0; e < deg; e++ {
		w := ctx.Load(g.slotAddr(v, e) + mem.WordSize)
		ctx.Compute(25) // per-neighbor centrality bookkeeping
		sum += w
	}
	ctx.Store(va+mem.WordSize, sum)
	return sum
}

// Degree reads v's degree (verification helper).
func (g *SSCA2) Degree(ctx sim.Ctx, v int) int { return int(ctx.Load(g.vertex(v))) }

// Run implements Workload: a scale-free mix of insertions (skewed source
// selection, RMAT-like) and analyses over the thread's vertex partition.
func (g *SSCA2) Run(ctx sim.Ctx, thread int) {
	rng := threadRNG(g.cfg.Seed, thread)
	per := g.nVerts / g.cfg.Threads
	base := thread * per
	zipf := rand.NewZipf(rng, 1.3, 1.0, uint64(per-1))
	for i := 0; i < g.cfg.TxnsPerThread; i++ {
		if i%4 == 3 {
			g.Analyze(ctx, base+int(zipf.Uint64()))
		} else {
			u := base + int(zipf.Uint64())
			v := base + rng.Intn(per)
			g.InsertEdge(ctx, u, v, uint64(rng.Intn(100)))
		}
		ctx.Compute(40)
	}
}
