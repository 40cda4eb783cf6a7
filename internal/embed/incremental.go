package embed

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/rfgraph"
	"repro/internal/sampling"
)

// IncrementalConfig controls online embedding of newly inserted nodes
// (§V-A of the paper). The defaults converge in well under a millisecond
// for typical scan sizes, which is what makes the paper's online inference
// "real-time".
type IncrementalConfig struct {
	// Rounds is how many passes are made over the new node's incident
	// edges.
	Rounds int
	// LearningRate is the (constant) SGD step size.
	LearningRate float64
	// NegativeSamples is K for the negative-sampling term.
	NegativeSamples int
	// Tolerance enables early stopping: after each round (one pass worth
	// of samples over the node's incident edges), if the relative L2
	// movement of the ego vector fell below Tolerance, the remaining
	// rounds are skipped. Rounds stays the hard cap. Zero disables early
	// stopping. With the defaults the test is seldom met: on the
	// 3-floor campus corpus (60 records per floor), 47 and 50 of 54
	// held-out scans ran the full 100 rounds for two seeds, so Rounds,
	// not Tolerance, bounds the cost.
	Tolerance float64
	// Seed roots the randomness.
	Seed int64
}

// DefaultIncrementalConfig returns settings tuned for single-node online
// updates. Rounds caps the work and, as measured, is what usually ends
// it: most scans run all 100 rounds before the Tolerance test is met
// (see IncrementalConfig.Tolerance).
func DefaultIncrementalConfig() IncrementalConfig {
	return IncrementalConfig{Rounds: 100, LearningRate: 0.025, NegativeSamples: 5, Tolerance: 0.01, Seed: 1}
}

// Validate reports the first invalid field.
func (c *IncrementalConfig) Validate() error {
	switch {
	case c.Rounds <= 0:
		return fmt.Errorf("embed: incremental rounds %d must be positive", c.Rounds)
	case c.LearningRate <= 0:
		return fmt.Errorf("embed: incremental learning rate %v must be positive", c.LearningRate)
	case c.NegativeSamples < 0:
		return fmt.Errorf("embed: incremental negative samples %d must be non-negative", c.NegativeSamples)
	case c.Tolerance < 0:
		return fmt.Errorf("embed: incremental tolerance %v must be non-negative", c.Tolerance)
	}
	return nil
}

// NegativeSampler is a frozen negative-sampling distribution over the
// live trained nodes of a graph view, ∝ weightedDegree^{3/4}. Drawing is
// O(1) and safe for concurrent use. One from a NegativeSamplerBuilder
// changes only when that builder next rebuilds successfully, so a
// trained System shares it across all concurrent online inferences under
// its read lock and refreshes it under its write lock, instead of
// re-deriving it per prediction.
type NegativeSampler struct {
	nodes []rfgraph.NodeID
	dist  *sampling.Alias
}

// NewNegativeSampler builds the deg^{3/4} node distribution for view.
// Only nodes with a trained row in emb (index < len(emb.Ego)) are
// included — untrained vectors are meaningless as negatives. It is
// NegativeSamplerBuilder.Rebuild on a cold builder.
func NewNegativeSampler(view rfgraph.View, emb *Embedding) (*NegativeSampler, error) {
	var b NegativeSamplerBuilder
	return b.Rebuild(view, emb)
}

// NegativeSamplerBuilder rebuilds a NegativeSampler as its graph grows,
// into reusable storage. It memoizes deg^{3/4} per node id together with
// the weighted degree it was computed from, so a rebuild after one
// absorbed scan calls math.Pow only for the handful of nodes whose
// weighted degree changed; the weights — and so the sampler — stay
// bit-identical to NewNegativeSampler's.
//
// Every Rebuild returns the same *NegativeSampler, updated in place on
// success. A failed Rebuild leaves it fully intact: the node list is
// double-buffered, and the alias table is only written once all weights
// have been validated. The zero value is ready to use. A builder is not
// safe for concurrent use, and the sampler it returns must not be read
// while a Rebuild runs.
type NegativeSamplerBuilder struct {
	deg     []float64        // weighted degree each pow entry was computed from; NaN when none
	pow     []float64        // deg^{3/4} per node id
	weights []float64        // per-rebuild weight scratch, parallel to spare
	spare   []rfgraph.NodeID // backs the next node list; sampler.nodes backs the published one
	alias   sampling.AliasBuilder
	sampler NegativeSampler
}

// Rebuild builds the deg^{3/4} node distribution for view over the nodes
// with a trained row in emb, like NewNegativeSampler.
func (b *NegativeSamplerBuilder) Rebuild(view rfgraph.View, emb *Embedding) (*NegativeSampler, error) {
	trained := len(emb.Ego)
	if n := view.NumNodes(); n < trained {
		trained = n
	}
	for len(b.deg) < trained {
		b.deg = append(b.deg, math.NaN())
		b.pow = append(b.pow, 0)
	}
	nodes := b.spare[:0]
	weights := b.weights[:0]
	for n := 0; n < trained; n++ {
		nid := rfgraph.NodeID(n)
		if view.Degree(nid) == 0 { // removed nodes have no live edges either
			continue
		}
		if wd := view.WeightedDegree(nid); wd != b.deg[n] {
			b.deg[n] = wd
			b.pow[n] = math.Pow(wd, 0.75)
		}
		nodes = append(nodes, nid)
		weights = append(weights, b.pow[n])
	}
	b.spare, b.weights = nodes, weights
	// AliasBuilder validates every weight before it writes, so on error
	// the published table is untouched.
	dist, err := b.alias.Rebuild(weights)
	if err != nil {
		return nil, fmt.Errorf("embed: incremental negative alias: %w", err)
	}
	b.spare = b.sampler.nodes
	b.sampler = NegativeSampler{nodes: nodes, dist: dist}
	return &b.sampler, nil
}

// Workspace holds the reusable buffers of one detached embedding: the
// learned vectors, SGD scratch, the per-scan incident-edge alias table,
// and the negative-draw buffer. Reusing a Workspace across requests
// removes every per-call allocation of the online-inference hot path. A
// Workspace is not safe for concurrent use; callers pool them (sync.Pool)
// and hand each request its own. The zero value is ready to use.
type Workspace struct {
	ego  []float64
	ctxv []float64
	prev []float64
	w    []float64
	gs   []float64
	rows [][]float64
	zbuf []rfgraph.NodeID
	edge sampling.AliasBuilder
}

// Release drops the model references the workspace holds — the row
// pointers the last request cached into rows — so a pooled workspace
// cannot pin a retired model's embedding tables in memory after a
// lifecycle hot swap. The numeric buffers are kept for reuse.
//
//grafics:hotpath
func (ws *Workspace) Release() {
	for i := range ws.rows {
		ws.rows[i] = nil
	}
}

// EmbedDetachedEgo is EmbedDetached without the O2 (context-of-id)
// direction. With frozen tables and negatives drawn once per sample, the
// two directions are independent, so the returned ego vector is
// bit-identical to EmbedDetached's at about half the cost. Use it when
// the caller only classifies (Predict) and never retains the node.
func EmbedDetachedEgo(view rfgraph.View, emb *Embedding, id rfgraph.NodeID, cfg IncrementalConfig, neg *NegativeSampler) ([]float64, error) {
	ego, _, err := embedDetached(view, emb, id, cfg, neg, false, nil)
	return ego, err
}

// EmbedDetachedEgoInto is EmbedDetachedEgo computing into ws's buffers:
// the returned ego vector is owned by ws and valid only until its next
// use, and the call allocates nothing once ws has warmed up. The result
// is bit-identical to EmbedDetachedEgo.
//
//grafics:hotpath
func EmbedDetachedEgoInto(ws *Workspace, view rfgraph.View, emb *Embedding, id rfgraph.NodeID, cfg IncrementalConfig, neg *NegativeSampler) ([]float64, error) {
	if ws == nil {
		ws = &Workspace{} // grafics:allocok nil-workspace fallback, not the pooled path
	}
	ego, _, err := embedDetached(view, emb, id, cfg, neg, false, ws)
	return ego, err
}

// EmbedDetached learns ego and context vectors for node id of view —
// typically a virtual scan node of an rfgraph.Overlay — while treating
// emb as strictly read-only, by minimizing the E-LINE objective
// restricted to id's incident edges. Nothing is written to emb or view,
// so any number of EmbedDetached calls may run concurrently against the
// same frozen model under a shared read lock. Neighbor nodes with no
// trained row in emb (brand-new MACs) contribute nothing and are skipped;
// per the paper, a record whose MACs are all new should be treated as
// out-of-building by the caller.
//
// neg supplies the shared negative-sampling distribution, built over the
// frozen graph that view overlays (or, for EmbedNewNode, the graph before
// the insert).
func EmbedDetached(view rfgraph.View, emb *Embedding, id rfgraph.NodeID, cfg IncrementalConfig, neg *NegativeSampler) (ego, ctx []float64, err error) {
	return embedDetached(view, emb, id, cfg, neg, true, nil)
}

//grafics:hotpath
func embedDetached(view rfgraph.View, emb *Embedding, id rfgraph.NodeID, cfg IncrementalConfig, neg *NegativeSampler, wantCtx bool, ws *Workspace) (ego, ctx []float64, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if !view.Alive(id) {
		return nil, nil, fmt.Errorf("%w: node %d", rfgraph.ErrUnknownNode, id)
	}
	neighbors := view.Neighbors(id)
	if len(neighbors) == 0 {
		return nil, nil, fmt.Errorf("embed: node %d has no edges to embed against", id)
	}
	if ws == nil {
		// One-shot callers get a private workspace; its buffers become the
		// returned vectors, so nothing is shared or overwritten later.
		ws = &Workspace{} // grafics:allocok one-shot callers, not the pooled path
	}
	seeder := sampling.NewSeeder(cfg.Seed)
	initRng := sampling.NewFast(seeder.Next())

	// Fresh vectors: online inference must not depend on whatever happened
	// to be in the node's slot before.
	ws.ego = resizeVec(ws.ego, emb.Dim)
	ego = ws.ego
	randomVectorInto(ego, initRng)
	fast := sampling.NewFast(seeder.Next())
	ws.ctxv = resizeVec(ws.ctxv, emb.Dim)
	ctx = ws.ctxv
	for d := range ctx {
		ctx[d] = 0
	}

	// Edge distribution over the node's incident edges, ∝ weight.
	ws.w = resizeVec(ws.w, len(neighbors))
	w := ws.w
	for i, he := range neighbors {
		w[i] = he.Weight
	}
	edgeDist, err := ws.edge.Rebuild(w)
	if err != nil {
		return nil, nil, fmt.Errorf("embed: incident edge alias: %w", err)
	}

	row := func(table [][]float64, j rfgraph.NodeID) []float64 {
		if int(j) < 0 || int(j) >= len(table) {
			return nil
		}
		return table[j]
	}
	ws.prev = resizeVec(ws.prev, emb.Dim)
	prev := ws.prev
	ws.gs = resizeVec(ws.gs, cfg.NegativeSamples+1)
	if cap(ws.rows) < cfg.NegativeSamples+1 {
		ws.rows = make([][]float64, cfg.NegativeSamples+1)
	}
	gs, rows := ws.gs, ws.rows[:cfg.NegativeSamples+1]
	if cap(ws.zbuf) < cfg.NegativeSamples {
		ws.zbuf = make([]rfgraph.NodeID, cfg.NegativeSamples)
	}
	zbuf := ws.zbuf[:cfg.NegativeSamples]
	for r := 0; r < cfg.Rounds; r++ {
		copy(prev, ego)
		for s := 0; s < len(neighbors); s++ {
			j := neighbors[edgeDist.DrawFast(fast)].To
			// One set of negative draws serves both directions (common
			// random numbers): the two source vectors are independent, so
			// sharing negatives halves the sampling cost without coupling
			// their gradients.
			for k := range zbuf {
				zbuf[k] = neg.nodes[neg.dist.DrawFast(fast)]
			}
			// O1 direction: context of j given ego of id.
			frozenUpdate(ego, row(emb.Ctx, j), emb.Ctx, j, id, zbuf, cfg.LearningRate, gs, rows)
			// O2 direction: ego of j given context of id. Skipped for
			// classify-only callers; it cannot affect ego.
			if wantCtx {
				frozenUpdate(ctx, row(emb.Ego, j), emb.Ego, j, id, zbuf, cfg.LearningRate, gs, rows)
			}
		}
		if cfg.Tolerance > 0 {
			var moved, norm float64
			for d := range ego {
				delta := ego[d] - prev[d]
				moved += delta * delta
				norm += prev[d] * prev[d]
			}
			// Relative L2 movement of the ego vector over this round;
			// only ego matters downstream, and with frozen tables the
			// ctx updates never feed back into it.
			if moved <= cfg.Tolerance*cfg.Tolerance*(norm+1e-12) {
				break
			}
		}
	}
	return ego, ctx, nil
}

// EmbedNewNode learns ego and context embeddings for node id — typically a
// record just inserted into g — while every other embedding stays fixed,
// and stores them into emb, growing it to cover id if needed. This is the
// mutating sibling of EmbedDetached for graph-growing paths (Absorb);
// callers must hold the write lock protecting emb and g. neg is the
// sampler published for g before the insert — the one a read-only
// classification of the same scan draws from — so an absorb embeds its
// scan against the same distribution as that classification, and the
// caller refreshes the sampler once afterwards.
func EmbedNewNode(g rfgraph.View, emb *Embedding, id rfgraph.NodeID, cfg IncrementalConfig, neg *NegativeSampler) error {
	ego, ctx, err := EmbedDetached(g, emb, id, cfg, neg)
	if err != nil {
		return err
	}
	PlaceNode(emb, g.NumNodes(), id, cfg.Seed, ego, ctx)
	return nil
}

// PlaceNode is the store half of EmbedNewNode: it grows emb to cover n
// node slots, initializing new slots from seed exactly as EmbedNewNode
// does with cfg.Seed, and stores ego and ctx as node id's rows. Given the
// rows and seed an EmbedNewNode call produced, it reproduces that call's
// effect on emb bit for bit without the SGD — how a replayed absorb
// applies journaled rows. The caller holds the write lock protecting emb
// and hands over ego and ctx (they become the table rows).
func PlaceNode(emb *Embedding, n int, id rfgraph.NodeID, seed int64, ego, ctx []float64) {
	emb.Grow(n, sampling.NewSeeder(seed).NextRand())
	emb.Ego[id] = ego
	emb.Ctx[id] = ctx
}

// frozenUpdate is updatePair with the table rows frozen: only source (a
// vector belonging to the new node) receives gradient. target is the
// positive row table[j] (nil when j has no trained row, in which case the
// positive term vanishes). zs holds the pre-drawn negative nodes; draws
// matching the positive node j or the embedded node id itself are
// skipped. All gradient coefficients are computed against the unchanged
// source first (gs/rows are caller scratch of size len(zs)+1), then
// applied directly — equivalent to accumulating into a grad buffer but
// two fewer passes over the vectors per sample.
//
//grafics:hotpath
func frozenUpdate(source, target []float64, table [][]float64, j, id rfgraph.NodeID, zs []rfgraph.NodeID, lr float64, gs []float64, rows [][]float64) {
	if len(source) == 8 {
		frozenUpdate8(source, target, table, j, id, zs, lr, gs, rows)
		return
	}
	n := 0
	if target != nil {
		gs[n] = -lr * (sigmoid(dotU(source, target)) - 1)
		rows[n] = target
		n++
	}
	for _, z := range zs {
		if z == j || z == id {
			continue
		}
		negRow := table[z]
		gs[n] = -lr * sigmoid(dotU(source, negRow))
		rows[n] = negRow
		n++
	}
	for k := 0; k < n; k++ {
		axpy(gs[k], rows[k], source)
	}
}

// frozenUpdate8 is frozenUpdate for the paper's embedding dimension. Its
// kernels (dot8/axpy8) are small enough for the compiler to inline, which
// removes a dozen function calls per SGD sample — measurable when a
// single classification takes thousands of samples.
//
//grafics:hotpath
func frozenUpdate8(source, target []float64, table [][]float64, j, id rfgraph.NodeID, zs []rfgraph.NodeID, lr float64, gs []float64, rows [][]float64) {
	src := (*[8]float64)(source)
	n := 0
	if len(target) >= 8 {
		gs[n] = -lr * (sigmoid(dot8(src, (*[8]float64)(target))) - 1)
		rows[n] = target
		n++
	}
	for _, z := range zs {
		if z == j || z == id {
			continue
		}
		negRow := table[z]
		if len(negRow) < 8 {
			continue
		}
		gs[n] = -lr * sigmoid(dot8(src, (*[8]float64)(negRow)))
		rows[n] = negRow
		n++
	}
	for k := 0; k < n; k++ {
		axpy8(gs[k], (*[8]float64)(rows[k]), src)
	}
}

// dot8 is the eight-wide dot product over array pointers: no bounds
// checks, and small enough that the compiler inlines it into the sample
// loop.
//
//grafics:hotpath
func dot8(a, b *[8]float64) float64 {
	return ((a[0]*b[0] + a[1]*b[1]) + (a[2]*b[2] + a[3]*b[3])) +
		((a[4]*b[4] + a[5]*b[5]) + (a[6]*b[6] + a[7]*b[7]))
}

// axpy8 is the eight-wide dst += g*row over array pointers, inlinable
// like dot8.
//
//grafics:hotpath
func axpy8(g float64, row, dst *[8]float64) {
	dst[0] += g * row[0]
	dst[1] += g * row[1]
	dst[2] += g * row[2]
	dst[3] += g * row[3]
	dst[4] += g * row[4]
	dst[5] += g * row[5]
	dst[6] += g * row[6]
	dst[7] += g * row[7]
}

// dotU is dot with a fully unrolled fast path for the paper's embedding
// dimension (8) and a four-accumulator tree reduction otherwise; both
// break the serial add dependency chain of the naive loop, roughly
// halving the per-sample dot cost. The reassociation changes
// floating-point summation order, so results differ from dot in the last
// bits — irrelevant under SGD noise, and every inference path shares
// this kernel so they stay mutually bit-identical.
//
//grafics:hotpath
func dotU(a, b []float64) float64 {
	if len(a) == 8 && len(b) >= 8 {
		b = b[:8]
		return ((a[0]*b[0] + a[1]*b[1]) + (a[2]*b[2] + a[3]*b[3])) +
			((a[4]*b[4] + a[5]*b[5]) + (a[6]*b[6] + a[7]*b[7]))
	}
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// axpy computes dst += g*row, unrolled to match dotU.
//
//grafics:hotpath
func axpy(g float64, row, dst []float64) {
	if len(dst) == 8 && len(row) >= 8 {
		row = row[:8]
		dst = dst[:8]
		dst[0] += g * row[0]
		dst[1] += g * row[1]
		dst[2] += g * row[2]
		dst[3] += g * row[3]
		dst[4] += g * row[4]
		dst[5] += g * row[5]
		dst[6] += g * row[6]
		dst[7] += g * row[7]
		return
	}
	row = row[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] += g * row[i]
		dst[i+1] += g * row[i+1]
		dst[i+2] += g * row[i+2]
		dst[i+3] += g * row[i+3]
	}
	for ; i < len(dst); i++ {
		dst[i] += g * row[i]
	}
}

// resizeVec returns v with length n, reusing the backing array when it is
// large enough. Contents are unspecified; callers overwrite.
//
//grafics:hotpath
func resizeVec(v []float64, n int) []float64 {
	if cap(v) < n {
		return make([]float64, n)
	}
	return v[:n]
}

// randomVectorInto fills v like randomVector but from the allocation-free
// Fast RNG the rest of the inference hot path uses, sparing the ~5 KB
// math/rand source that dominated per-request allocations.
//
//grafics:hotpath
func randomVectorInto(v []float64, rng *sampling.Fast) {
	for d := range v {
		v[d] = (rng.Float64() - 0.5) / float64(len(v))
	}
}

// Objective evaluates the negative-sampling loss L_G of Eq. 10 over all
// edges with a fixed number of Monte-Carlo negatives per edge. It is meant
// for tests and diagnostics (training never materializes the full loss).
func Objective(g *rfgraph.Graph, emb *Embedding, mode Mode, negatives int, seed int64) (float64, error) {
	tc, err := buildTrainContext(g)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	var loss float64
	safeLog := func(x float64) float64 {
		if x < 1e-12 {
			x = 1e-12
		}
		return math.Log(x)
	}
	for _, e := range tc.edges {
		i, j := e.Src, e.Dst
		var pos float64
		switch mode {
		case ModeLINEFirst:
			pos = safeLog(sigmoid(dot(emb.Ego[i], emb.Ego[j])))
		case ModeLINESecond:
			pos = safeLog(sigmoid(dot(emb.Ego[i], emb.Ctx[j])))
		default:
			pos = safeLog(sigmoid(dot(emb.Ego[i], emb.Ctx[j]))) + safeLog(sigmoid(dot(emb.Ctx[i], emb.Ego[j])))
		}
		neg := 0.0
		for k := 0; k < negatives; k++ {
			z := tc.negNodes[tc.negDist.Draw(rng)]
			switch mode {
			case ModeLINEFirst:
				neg += safeLog(sigmoid(-dot(emb.Ego[i], emb.Ego[z])))
			case ModeLINESecond:
				neg += safeLog(sigmoid(-dot(emb.Ego[i], emb.Ctx[z])))
			default:
				neg += safeLog(sigmoid(-dot(emb.Ego[i], emb.Ctx[z]))) + safeLog(sigmoid(-dot(emb.Ctx[i], emb.Ego[z])))
			}
		}
		loss -= e.Weight * (pos + neg)
	}
	return loss, nil
}
