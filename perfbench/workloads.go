package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/internal/lifecycle"
	"repro/internal/portfolio"
	"repro/internal/wal"
)

// workload is one traffic mix at one scale. The op counts and the
// open-loop rate are fixed: a later change is measured against the same
// schedule, never a retuned one.
type workload struct {
	name   string
	corpus corpusSpec
	// shards splits the buildings over this many shard groups of one
	// primary each behind a router; 0 means one primary with an async
	// follower and no router, whose load interleaves absorbs 1:1 with
	// reads.
	shards int
	// rate is the open-loop phase's fixed send rate (ops/s); the phase
	// lasts --seconds.
	rate float64
	// closed is the closed-loop phase's fixed op count.
	closed int
	// traced is the op count of the traced load phase (--trace 1).
	traced int
	// chainReads and chainAbsorbs are the idle samples per path in the
	// traced run.
	chainReads, chainAbsorbs int
	// minMicroF is the accuracy floor below which the run is incorrect.
	minMicroF float64
}

// mixed reports whether the load phases interleave absorbs with reads.
func (wl workload) mixed() bool { return wl.shards == 0 }

// setups is how many times an untraced run brings the deployment up;
// setup_s is their median and each one serves a replica of the load.
// refits is how many times it then refits the largest building; refit_s
// is their median.
const (
	setups = 2
	refits = 5
)

// Fixed geometry of the full-scale corpora (see corpusSpec).
var (
	msFloors = func() []int {
		f := make([]int, 24)
		for i := range f {
			f[i] = 2 + i*10/23 // 2..12 floors, the MicrosoftLike range
		}
		return f
	}()
	msSides = func() []float64 {
		s := make([]float64, 24)
		for i := range s {
			s[i] = 40 + 50*float64((i*7)%24)/23 // 40..90 m, shuffled against floors
		}
		return s
	}()
)

func workloads(tiny bool) map[string]workload {
	if tiny {
		return map[string]workload{
			"read-sharded": {
				name:   "read-sharded",
				corpus: corpusSpec{Profile: "microsoft-like", Floors: []int{2, 3, 3, 2}, SidesM: []float64{40, 45, 50, 40}, PerFloor: 20, Extra: 6, TrainFrac: 0.7, Labels: 4},
				shards: 2, rate: 60, closed: 40, traced: 24, chainReads: 6, chainAbsorbs: 6, minMicroF: 0.5,
			},
			"crowd-replicated": {
				name:   "crowd-replicated",
				corpus: corpusSpec{Profile: "hongkong-like", Floors: []int{3, 3}, SidesM: []float64{50, 40}, PerFloor: 20, Extra: 20, TrainFrac: 0.7, Labels: 4},
				rate:   60, closed: 40, traced: 24, chainReads: 6, chainAbsorbs: 6, minMicroF: 0.5,
			},
		}
	}
	return map[string]workload{
		"read-sharded": {
			name:   "read-sharded",
			corpus: corpusSpec{Profile: "microsoft-like", Floors: msFloors, SidesM: msSides, PerFloor: 40, Extra: 8, TrainFrac: 0.7, Labels: 4},
			shards: 2, rate: 1000, closed: 10000, traced: 1000, chainReads: 400, chainAbsorbs: 200, minMicroF: 0.9,
		},
		"crowd-replicated": {
			name:   "crowd-replicated",
			corpus: corpusSpec{Profile: "hongkong-like", Floors: []int{10, 8, 6, 5, 3}, SidesM: []float64{120, 105, 90, 75, 60}, PerFloor: 100, Extra: 100, TrainFrac: 0.7, Labels: 8},
			rate:   250, closed: 4000, traced: 1000, chainReads: 300, chainAbsorbs: 150, minMicroF: 0.75,
		},
	}
}

// runner is one run of one workload.
type runner struct {
	w       io.Writer
	wl      workload
	seconds int
	trace   bool
	dir     string
	spans   *spanLog

	bs         []*building
	floors     map[string]map[int]bool
	owner      map[string]int // building -> primary index
	reads      []scan
	absorbs    []scan
	nextRead   int
	nextAbsorb int

	attempted, failed int
	problems          []string
	metrics           map[string]metric
}

func (r *runner) logf(format string, args ...any) { fmt.Fprintf(r.w, format+"\n", args...) }

// problem records a failed output check.
func (r *runner) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	r.logf("CHECK FAILED: %s", msg)
}

func (r *runner) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// ops builds n ops: all reads, or reads and absorbs alternating.
func (r *runner) ops(n int, mixed bool) ([]op, error) {
	out := make([]op, n)
	for i := range out {
		k := opRead
		if mixed && i%2 == 1 {
			k = opAbsorb
		}
		pool, next := r.reads, &r.nextRead
		if k == opAbsorb {
			pool, next = r.absorbs, &r.nextAbsorb
		}
		s, err := take(pool, next, 1)
		if err != nil {
			return nil, err
		}
		out[i] = op{kind: k, scan: s[0]}
	}
	return out, nil
}

// bringUp starts the workload's deployment under dir.
func (r *runner) bringUp(dir string) (*deployment, error) {
	d, err := newDeployment(dir, r.spans)
	if err != nil {
		return nil, err
	}
	if r.wl.shards == 0 {
		pr, err := d.addPrimary(r.bs)
		if err != nil {
			return d, err
		}
		_, err = d.addFollower(pr)
		return d, err
	}
	groups := make([][]string, r.wl.shards)
	for s := range groups {
		var mine []*building
		for _, b := range r.bs {
			if r.owner[b.name] == s {
				mine = append(mine, b)
			}
		}
		pr, err := d.addPrimary(mine)
		if err != nil {
			return d, err
		}
		groups[s] = []string{pr.srv.url}
	}
	_, err = d.addRouter(groups)
	return d, err
}

// run executes the workload and fills r.metrics.
func (r *runner) run(ctx context.Context, seed int64) error {
	wl := r.wl
	var err error
	if r.bs, err = generate(wl.corpus, seed); err != nil {
		return err
	}
	r.floors = map[string]map[int]bool{}
	r.owner = map[string]int{}
	trainRecords := 0
	for i, b := range r.bs {
		r.floors[b.name] = b.floors
		if wl.shards > 0 {
			r.owner[b.name] = i % wl.shards
		}
		trainRecords += len(b.train)
	}
	if r.reads, err = readPool(r.bs); err != nil {
		return err
	}
	if r.absorbs, err = absorbPool(r.bs); err != nil {
		return err
	}
	r.logf("workload %s seed %d: %d buildings, %d train records, %d held-out reads, %d crowd scans",
		wl.name, seed, len(r.bs), trainRecords, len(r.reads), len(r.absorbs))

	openOps := int(wl.rate*float64(r.seconds) + 0.5)
	var openPlan, closedPlan []op
	if openPlan, err = r.ops(openOps, wl.mixed()); err != nil {
		return err
	}
	if closedPlan, err = r.ops(wl.closed, wl.mixed()); err != nil {
		return err
	}

	heap := startHeapSampler()
	defer heap.finish()
	gen := newGenerator(runtime.GOMAXPROCS(0))
	defer gen.close()
	// Every bring-up is timed and then serves one replica of the load
	// phases, the same schedule on a fresh deployment each time: setup_s,
	// read_p50_ms and capacity_ops_s are medians over replicas. The last
	// deployment also serves the checks and the refits. The traced run
	// reports none of those, so it brings the deployment up once and
	// refits once.
	nSetups, nRefits := setups, refits
	if r.trace {
		nSetups, nRefits = 1, 1
	}
	var setupTimes []float64
	var reps []replica
	var d *deployment
	var histBefore map[string]float64
	var lagMS []float64
	var nodeReqsPerRead float64
	for k := 0; k < nSetups; k++ {
		if d != nil {
			gen.close()
			if err := d.close(); err != nil {
				return fmt.Errorf("tear down setup %d: %w", k-1, err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		d, err = r.bringUp(filepath.Join(r.dir, fmt.Sprintf("setup-%d", k)))
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if err != nil {
			if d != nil {
				_ = d.close()
			}
			return fmt.Errorf("bring-up %d: %w", k, err)
		}
		// The traced run also scrapes the program's own histograms before
		// the phases (and again after its traced load) and watches the
		// follower's lag; both happen outside the program and off the
		// request path.
		var lag *lagSampler
		if r.trace {
			if histBefore, err = scrape(); err != nil {
				_ = d.close()
				return err
			}
			if d.follower != nil {
				lag = startLagSampler(d.primaries[0], d.follower)
			}
		}
		rep := r.replica(ctx, gen, d, k, openPlan, closedPlan)
		reps = append(reps, rep)
		if r.trace {
			if lag != nil {
				lagMS = lag.finish()
			}
			nodeReqsPerRead = float64(rep.nodeReads) / float64(rep.open.count(opRead)+rep.closed.count(opRead))
		}
		r.checkAbsorbed(d, rep.acked())
	}
	defer func() {
		if cerr := d.close(); cerr != nil {
			r.logf("tear down: %v", cerr)
		}
	}()
	r.logf("setup: %s", fmtSeconds(setupTimes))
	r.set("setup_s", median(setupTimes), "s")

	var reads []prediction
	for _, rep := range reps {
		for _, g := range rep.phases() {
			r.logf("%s", g.describe())
			r.attempted += g.sent
			r.failed += g.failed
			if g.firstFailure != "" {
				r.problem("%d failed ops; first: %s", g.failed, g.firstFailure)
			}
			reads = append(reads, g.reads...)
		}
	}
	overReps := func(f func(rep replica) float64) float64 {
		var per []float64
		for _, rep := range reps {
			per = append(per, f(rep))
		}
		return median(per)
	}
	r.set("read_p50_ms", overReps(func(rep replica) float64 { return median(rep.closed.lat[opRead]) }), "ms")
	r.set("capacity_ops_s", overReps(func(rep replica) float64 { return rep.closed.phase.capacity() }), "1/s")
	micro, macro, err := fScores(reads)
	if err != nil {
		return err
	}
	r.set("micro_f", micro, "ratio")
	r.set("macro_f", macro, "ratio")
	r.logf("accuracy over %d reads: micro-F %.4f macro-F %.4f (floor %.2f)", len(reads), micro, macro, wl.minMicroF)
	if micro < wl.minMicroF {
		r.problem("micro-F %.4f is below the floor %.2f", micro, wl.minMicroF)
	}

	if d.follower != nil {
		r.checkFollower(ctx, d)
	}
	refitCorpus, err := r.refit(ctx, d, nRefits)
	if err != nil {
		return err
	}
	r.set("peak_heap_mib", heap.finish(), "MiB")

	if r.trace {
		return r.traced(ctx, d, gen, r.base(d), histBefore, lagMS, nodeReqsPerRead, refitCorpus)
	}
	return nil
}

// replica is one deployment's run of the load phases: the open loop at the
// fixed rate, then the closed loop. read_p50_ms is the closed-loop reads'
// median, whose in-flight requests the generator bounds, and
// capacity_ops_s comes from the closed loop's CPU time. Every phase's p50
// and p99 per op (the open loop's timed from each request's due time) and
// how late the generator ran are reported per phase, not gated: on a
// shared 2-vCPU host the open-loop latencies, all p99s and the absorb
// p50s moved by 20-80% between runs, more than any bound a regression
// gate can carry.
type replica struct {
	open, closed *graded
	nodeReads    int64 // node classify requests during open and closed
}

func (rep replica) phases() []*graded { return []*graded{rep.open, rep.closed} }

// acked counts the absorbs the replica saw acknowledged.
func (rep replica) acked() int {
	n := 0
	for _, g := range rep.phases() {
		n += len(g.lat[opAbsorb])
	}
	return n
}

func (r *runner) replica(ctx context.Context, gen *generator, d *deployment, k int, openPlan, closedPlan []op) replica {
	base := r.base(d)
	var rep replica
	nodeReads0 := r.nodeClassifys(d)
	rep.open = grade(gen.runOpen(ctx, fmt.Sprintf("open-loop-%d", k), base, openPlan, r.wl.rate, nil), r.floors)
	// Each closed-loop phase starts from a collected heap, so the grading
	// garbage of the phase before it is not charged to it.
	runtime.GC()
	rep.closed = grade(gen.runClosed(ctx, fmt.Sprintf("closed-loop-%d", k), base, closedPlan, nil), r.floors)
	rep.nodeReads = r.nodeClassifys(d) - nodeReads0
	return rep
}

// base is the URL the generator sends to: the router when there is one.
func (r *runner) base(d *deployment) string {
	if d.router != nil {
		return d.router.srv.url
	}
	return d.primaries[0].srv.url
}

// nodeClassifys is how many classify requests the primaries have served.
func (r *runner) nodeClassifys(d *deployment) int64 {
	var n int64
	for _, pr := range d.primaries {
		n += pr.tap.classifys.Load()
	}
	return n
}

// absorbedCounts maps every building of p to its absorbed-record count.
func absorbedCounts(p *portfolio.Portfolio) (map[string]int, error) {
	out := map[string]int{}
	for _, name := range p.Buildings() {
		sys, err := p.System(name)
		if err != nil {
			return nil, err
		}
		out[name] = sys.AbsorbedRecords()
	}
	return out, nil
}

// checkAbsorbed compares the primaries' absorbed counts with the absorbs
// the generator saw acknowledged.
func (r *runner) checkAbsorbed(d *deployment, acked int) {
	total := 0
	for _, pr := range d.primaries {
		counts, err := absorbedCounts(pr.m.Portfolio())
		if err != nil {
			r.problem("absorbed count: %v", err)
			return
		}
		for _, n := range counts {
			total += n
		}
	}
	r.logf("check: primaries hold %d absorbed scans, %d absorbs acked", total, acked)
	if total != acked {
		r.problem("primaries hold %d absorbed scans but %d absorbs were acked", total, acked)
	}
}

// checkFollower waits for the follower to apply through the primary's
// WAL position, then compares per-building absorbed counts.
func (r *runner) checkFollower(ctx context.Context, d *deployment) {
	pr, f := d.primaries[0], d.follower
	epoch, pos, _ := pr.m.WALPosition()
	if err := waitFollower(ctx, d); err != nil {
		ri := f.node.ReplInfo()
		r.problem("follower at %s/%s never reached the primary's WAL position %s/%s: %v", ri.Epoch, ri.Applied, epoch, pos, err)
		return
	}
	want, err := absorbedCounts(pr.m.Portfolio())
	if err != nil {
		r.problem("primary absorbed counts: %v", err)
		return
	}
	got, err := absorbedCounts(f.node.Portfolio())
	if err != nil {
		r.problem("follower absorbed counts: %v", err)
		return
	}
	for _, name := range sortedKeys(want) {
		if want[name] != got[name] {
			r.problem("building %s: primary absorbed %d, follower %d at the same WAL position", name, want[name], got[name])
		}
	}
	r.logf("check: follower at WAL position %s/%s with per-building absorbed counts equal to the primary's", epoch, pos)
}

// refit forces n refits of the largest building, timing each until the
// new model serves. It returns the corpus the refits trained on.
func (r *runner) refit(ctx context.Context, d *deployment, n int) ([]dataset.Record, error) {
	largest := r.bs[0]
	for _, b := range r.bs {
		if len(b.train) > len(largest.train) {
			largest = b
		}
	}
	pr := d.primaries[r.owner[largest.name]]
	p := pr.m.Portfolio()
	var corpus []dataset.Record
	var times []float64
	for k := 0; k < n; k++ {
		if k > 0 && d.follower != nil {
			// The last refit truncated the journal and the follower is
			// re-bootstrapping from a fresh snapshot; let it finish so it
			// does not share the cores with the next timed refit.
			if err := waitFollower(ctx, d); err != nil {
				return nil, fmt.Errorf("follower re-bootstrap after refit: %w", err)
			}
		}
		old, err := p.System(largest.name)
		if err != nil {
			return nil, err
		}
		before := refitsOf(pr.m, largest.name)
		corpus = old.CorpusRecords()
		t0 := time.Now()
		started, err := pr.m.ForceRefit(largest.name)
		if err != nil {
			return nil, err
		}
		if len(started) != 1 {
			return nil, fmt.Errorf("refit of %s did not start", largest.name)
		}
		err = waitFor(ctx, 120*time.Second, func() bool {
			sys, err := p.System(largest.name)
			return err == nil && sys != old
		})
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("refit of %s: new model never served: %w", largest.name, err)
		}
		if err := waitFor(ctx, 120*time.Second, func() bool { return !pr.m.Refitting() }); err != nil {
			return nil, fmt.Errorf("refit of %s never finished: %w", largest.name, err)
		}
		if after := refitsOf(pr.m, largest.name); after != before+1 {
			r.problem("refit count of %s went %d -> %d across one forced refit", largest.name, before, after)
		}
	}
	r.logf("refits of %s (%d records) served after %s", largest.name, len(corpus), fmtSeconds(times))
	r.set("refit_s", median(times), "s")
	return corpus, nil
}

func refitsOf(m *lifecycle.Manager, name string) int {
	for _, b := range m.Status().Buildings {
		if b.Building == name {
			return b.Refits
		}
	}
	return 0
}

// traced runs the per-layer measurements: a traced load phase for the
// tracing overhead, idle layer-by-layer chains for self times, counted
// allocations, attribution ambiguity, and the fit stages. The histogram
// figures are deltas from histBefore, scraped before the load phases, to
// the end of the traced load, the only phase with absorbs on read-sharded.
func (r *runner) traced(ctx context.Context, d *deployment, gen *generator, base string, histBefore map[string]float64,
	lagMS []float64, nodeReqsPerRead float64, refitCorpus []dataset.Record) error {
	wl := r.wl
	if d.follower != nil {
		if err := waitFollower(ctx, d); err != nil {
			return fmt.Errorf("follower re-bootstrap after refit: %w", err)
		}
	}

	// Traced load: every other pair of ops carries a trace id.
	plan, err := r.ops(wl.traced, true)
	if err != nil {
		return err
	}
	for i := range plan {
		if (i/2)%2 == 0 {
			plan[i].traceID = fmt.Sprintf("%sload-%s-%d", tracePrefix, plan[i].kind, i)
		}
	}
	tl := grade(gen.runClosed(ctx, "traced-load", base, plan, r.spans), r.floors)
	histAfter, err := scrape()
	if err != nil {
		return err
	}
	hist := diffScrapes(histBefore, histAfter)
	r.logf("%s", tl.describe())
	r.attempted += tl.sent
	r.failed += tl.failed
	if tl.firstFailure != "" {
		r.problem("%d failed ops; first: %s", tl.failed, tl.firstFailure)
	}
	kindOf := map[string]opKind{}
	for i := range plan {
		if plan[i].traceID != "" {
			kindOf[plan[i].traceID] = plan[i].kind
		}
	}
	loaded := loadedSpans(r.spans.byID(tracePrefix+"load-"), func(id string) opKind { return kindOf[id] })
	for _, k := range []opKind{opRead, opAbsorb} {
		r.logf("traced load, median span per layer (us) of %d traced %ss: %s", len(tl.traced[k]), k, fmtLayers(loaded[k]))
	}
	readOverhead := median(tl.traced[opRead]) - median(tl.plain[opRead])
	absorbOverhead := median(tl.traced[opAbsorb]) - median(tl.plain[opAbsorb])
	r.logf("tracing overhead: read p50 %+.4fms, absorb p50 %+.4fms (traced minus untraced ops of the same phase)", readOverhead, absorbOverhead)
	r.set("trace.read_overhead_ms", readOverhead, "ms")
	r.set("trace.absorb_overhead_ms", absorbOverhead, "ms")

	// Fixtures for the layers this deployment lacks: a router in front
	// of the lone primary, a follower behind the first shard primary.
	routerURL := base
	if d.router == nil {
		rt, err := d.addRouter([][]string{{d.primaries[0].srv.url}})
		if err != nil {
			return err
		}
		routerURL = rt.srv.url
	}
	var fixtureLag *lagSampler
	if d.follower == nil {
		f, err := d.addFollower(d.primaries[0])
		if err != nil {
			return err
		}
		fixtureLag = startLagSampler(d.primaries[0], f)
		defer fixtureLag.finish()
	}

	benchLog, err := wal.Open(wal.Options{Dir: filepath.Join(d.dir, "bench-wal"), SyncEvery: 1})
	if err != nil {
		return err
	}
	defer benchLog.Close()
	ct := &chainTarget{
		owner:   func(b string) *primary { return d.primaries[r.owner[b]] },
		routerU: routerURL,
		hc:      &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second},
		log:     benchLog,
		spans:   &spanLog{},
	}
	defer ct.hc.CloseIdleConnections()
	warmR, err := take(r.reads, &r.nextRead, 20)
	if err != nil {
		return err
	}
	if err := ct.readChain(ctx, warmR); err != nil {
		return err
	}
	ct.spans = r.spans
	readScans, err := take(r.reads, &r.nextRead, wl.chainReads)
	if err != nil {
		return err
	}
	if err := ct.readChain(ctx, readScans); err != nil {
		return err
	}
	absorbScans, err := take(r.absorbs, &r.nextAbsorb, wl.chainAbsorbs)
	if err != nil {
		return err
	}
	if err := ct.absorbChain(ctx, absorbScans); err != nil {
		return err
	}
	if fixtureLag != nil {
		// Let the follower apply the chain's last absorbs before the
		// sampler stops, so every lag sample it queued completes.
		if err := waitFollower(ctx, d); err != nil {
			return fmt.Errorf("follower fixture never caught up: %w", err)
		}
		time.Sleep(10 * time.Millisecond)
		lagMS = fixtureLag.finish()
	}
	readLT := selfTimes(r.spans.byID(tracePrefix+"read-"), false)
	absorbLT := selfTimes(r.spans.byID(tracePrefix+"absorb-"), true)
	r.logf("%s", readLT.describe("read"))
	r.logf("%s", absorbLT.describe("absorb"))

	coreAllocs, handlerAllocs, err := r.allocs(ctx, d, readScans)
	if err != nil {
		return err
	}
	ambiguous := 0
	for i := range r.reads {
		s := &r.reads[i]
		m, err := d.primaries[r.owner[s.building]].m.Portfolio().Attribute(&s.rec, 0)
		if err != nil {
			return err
		}
		if m.RunnerUp > 0 {
			ambiguous++
		}
	}

	corpora := [][]dataset.Record{refitCorpus}
	if wl.shards > 0 {
		corpora = corpora[:0]
		for _, b := range r.bs {
			corpora = append(corpora, b.train)
		}
	}
	build, train, clust, err := fitStages(ctx, corpora)
	if err != nil {
		return err
	}
	r.logf("fit stages over %d corpora: rfgraph build %.3fs, embed train %.3fs, cluster train %.3fs", len(corpora), build.Seconds(), train.Seconds(), clust.Seconds())

	med := func(lt layerTimes, l string) float64 { return median(lt.self[l]) }
	r.set("server.handler_self_us", med(readLT, "server.handler_self"), "us")
	r.set("server.allocs_per_op", handlerAllocs, "count")
	r.set("server.transport_us", med(readLT, "server.transport"), "us")
	r.set("portfolio.attribute_us", med(readLT, "portfolio.attribute"), "us")
	r.set("portfolio.self_us", med(readLT, "portfolio.self"), "us")
	r.set("portfolio.ambiguous_ratio", float64(ambiguous)/float64(len(r.reads)), "ratio")
	r.set("core.classify_us", med(readLT, "core.classify"), "us")
	r.set("core.classify_allocs_per_op", coreAllocs, "count")
	stage := `grafics_core_classify_stage_seconds`
	r.set("core.overlay_us", hist.meanUS(stage, `{stage="overlay"}`), "us")
	r.set("core.embed_us", hist.meanUS(stage, `{stage="embed"}`), "us")
	r.set("core.reduce_us", hist.meanUS(stage, `{stage="reduce"}`), "us")
	r.set("core.absorb_us", med(absorbLT, "core.absorb"), "us")
	r.set("lifecycle.absorb_self_us", med(absorbLT, "lifecycle.absorb_self"), "us")
	r.set("wal.append_us", hist.meanUS("grafics_wal_append_seconds", ""), "us")
	r.set("wal.fsync_us", hist.meanUS("grafics_wal_fsync_seconds", ""), "us")
	if n := hist["grafics_wal_appends_total"]; n > 0 {
		r.set("wal.bytes_per_record", hist["grafics_wal_appended_bytes_total"]/n, "B")
	}
	r.set("fleet.router_hop_us", med(readLT, "fleet.router_hop"), "us")
	r.set("fleet.node_requests_per_read", nodeReqsPerRead, "count")
	r.set("fleet.follower_lag_ms", median(lagMS), "ms")
	r.set("rfgraph.build_s", build.Seconds(), "s")
	r.set("embed.train_s", train.Seconds(), "s")
	r.set("cluster.train_s", clust.Seconds(), "s")
	r.set("trace.read_e2e_us", median(readLT.e2e), "us")
	r.set("trace.read_remainder_us", readLT.remainder(), "us")
	r.set("trace.absorb_e2e_us", median(absorbLT.e2e), "us")
	r.set("trace.absorb_remainder_us", absorbLT.remainder(), "us")
	r.logf("histograms over the load phases and the traced load: overlay %.1fus embed %.1fus reduce %.1fus per classify; WAL append %.1fus fsync %.1fus, %.0f bytes per record",
		r.metrics["core.overlay_us"].Value, r.metrics["core.embed_us"].Value, r.metrics["core.reduce_us"].Value,
		r.metrics["wal.append_us"].Value, r.metrics["wal.fsync_us"].Value, r.metrics["wal.bytes_per_record"].Value)
	r.logf("attribution: %d of %d held-out scans have a non-zero runner-up overlap; %.2f node classify requests per read",
		ambiguous, len(r.reads), nodeReqsPerRead)
	return nil
}

// allocs counts heap allocations per read classification at the core
// and of the node handler on an in-memory writer, with every request
// built before counting starts.
func (r *runner) allocs(ctx context.Context, d *deployment, scans []scan) (coreAllocs, handlerAllocs float64, err error) {
	n := len(scans)
	systems := make([]func() error, n)
	reqs := make([]*http.Request, n)
	for i := range scans {
		s := &scans[i]
		pr := d.primaries[r.owner[s.building]]
		sys, err := pr.m.Portfolio().System(s.building)
		if err != nil {
			return 0, 0, err
		}
		rec := s.rec
		systems[i] = func() error { _, err := sys.Classify(ctx, &rec, readOpts...); return err }
		reqs[i] = memRequest("/v2/classify", s.body)
	}
	if coreAllocs, err = allocsPerOp(n, func(i int) error { return systems[i]() }); err != nil {
		return 0, 0, err
	}
	w := newMemWriter()
	handlerAllocs, err = allocsPerOp(n, func(i int) error {
		return serveMem(d.primaries[r.owner[scans[i].building]].node, w, reqs[i])
	})
	return coreAllocs, handlerAllocs, err
}

func fmtSeconds(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%.3fs", x)
	}
	return s
}

func fmtLayers(m map[string]float64) string {
	s := ""
	for _, k := range sortedKeys(m) {
		s += fmt.Sprintf("%s %.1f ", k, m[k])
	}
	return s
}
