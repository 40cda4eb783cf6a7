package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/obs"
	"repro/internal/rfgraph"
	"repro/internal/wal"
)

// tracePrefix marks the trace ids the benchmark mints; taps record spans
// only for requests carrying one.
const tracePrefix = "pb-"

// span is one timed call at a layer boundary. Spans of one request share
// its id.
type span struct {
	id, layer  string
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(id, layer string, start, end time.Time) {
	l.mu.Lock()
	l.spans = append(l.spans, span{id, layer, start, end})
	l.mu.Unlock()
}

// timed runs f as a span of layer on request id.
func (l *spanLog) timed(id, layer string, f func() error) error {
	start := time.Now()
	err := f()
	l.add(id, layer, start, time.Now())
	if err != nil {
		return fmt.Errorf("%s %s: %w", layer, id, err)
	}
	return nil
}

// byID groups the spans whose id starts with prefix: id -> layer -> spans.
func (l *spanLog) byID(prefix string) map[string]map[string][]span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[string]map[string][]span{}
	for _, s := range l.spans {
		if !strings.HasPrefix(s.id, prefix) {
			continue
		}
		if out[s.id] == nil {
			out[s.id] = map[string][]span{}
		}
		out[s.id][s.layer] = append(out[s.id][s.layer], s)
	}
	return out
}

// write stores every span as one JSON line, times in microseconds from
// the first span's start.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	var t0 time.Time
	if len(l.spans) > 0 {
		t0 = l.spans[0].start
		for _, s := range l.spans {
			if s.start.Before(t0) {
				t0 = s.start
			}
		}
	}
	enc := json.NewEncoder(bw)
	for _, s := range l.spans {
		_ = enc.Encode(map[string]any{
			"id": s.id, "layer": s.layer,
			"start_us": float64(s.start.Sub(t0).Nanoseconds()) / 1e3,
			"end_us":   float64(s.end.Sub(t0).Nanoseconds()) / 1e3,
		})
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scrape reads every series the program exports through its metrics
// registry: the same histograms and counters /v2/metrics serves.
func scrape() (map[string]float64, error) {
	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// histDelta is the change of one exported series between two scrapes.
type histDelta map[string]float64

func diffScrapes(before, after map[string]float64) histDelta {
	d := histDelta{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// meanUS is the mean observation, in microseconds, a histogram took
// between the scrapes. labels is the rendered label set, e.g.
// `{stage="embed"}`, or "".
func (d histDelta) meanUS(name, labels string) float64 {
	n := d[name+"_count"+labels]
	if n == 0 {
		return 0
	}
	return d[name+"_sum"+labels] / n * 1e6
}

// memWriter is an in-memory ResponseWriter reused across calls, so a
// handler measured on it allocates only what the handler allocates.
type memWriter struct {
	h      http.Header
	status int
	buf    bytes.Buffer
}

func newMemWriter() *memWriter { return &memWriter{h: http.Header{}} }

func (w *memWriter) Header() http.Header { return w.h }
func (w *memWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *memWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.buf.Write(b)
}
func (w *memWriter) reset() {
	clear(w.h)
	w.status = 0
	w.buf.Reset()
}

// The options the HTTP surface classifies a read and an absorb with.
var (
	readOpts   = []core.Option{core.WithoutEmbedding()}
	absorbOpts = []core.Option{core.WithoutEmbedding(), core.WithAbsorb()}
)

// chainTarget issues one read or absorb at every layer boundary in turn,
// from the innermost public call outward.
type chainTarget struct {
	owner   func(building string) *primary
	routerU string
	hc      *http.Client
	log     *wal.Log // benchmark-owned, same filesystem as the journals
	spans   *spanLog
}

// post sends body to url and checks for a 2xx reply.
func (c *chainTarget) post(ctx context.Context, url string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return nil
}

// serveMem runs h on an in-memory request and checks for a 2xx reply.
func serveMem(h http.Handler, w *memWriter, req *http.Request) error {
	w.reset()
	h.ServeHTTP(w, req)
	if w.status/100 != 2 {
		return fmt.Errorf("status %d: %s", w.status, bytes.TrimSpace(w.buf.Bytes()))
	}
	return nil
}

func memRequest(path string, body []byte) *http.Request {
	req, _ := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	return req
}

// readChain issues each scan at core, portfolio attribution, portfolio,
// node handler in memory, node over loopback, and router.
func (c *chainTarget) readChain(ctx context.Context, scans []scan) error {
	w := newMemWriter()
	for i := range scans {
		s := &scans[i]
		id := fmt.Sprintf("%sread-%d", tracePrefix, i)
		pr := c.owner(s.building)
		p := pr.m.Portfolio()
		sys, err := p.System(s.building)
		if err != nil {
			return err
		}
		rec := s.rec
		req := memRequest("/v2/classify", s.body)
		// One untimed classification first, so the innermost span does
		// not alone pay for bringing the scan's rows into cache.
		if _, err := sys.Classify(ctx, &rec, readOpts...); err != nil {
			return err
		}
		steps := []struct {
			layer string
			f     func() error
		}{
			{"core", func() error { _, err := sys.Classify(ctx, &rec, readOpts...); return err }},
			{"attribute", func() error { _, err := p.Attribute(&rec, 0); return err }},
			{"portfolio", func() error { _, err := p.ClassifyRouted(ctx, &rec, readOpts...); return err }},
			{"handler", func() error { return serveMem(pr.node, w, req) }},
			{"node", func() error { return c.post(ctx, pr.srv.url+"/v2/classify", s.body) }},
			{"router", func() error { return c.post(ctx, c.routerU+"/v2/classify", s.body) }},
		}
		for _, st := range steps {
			if err := c.spans.timed(id, st.layer, st.f); err != nil {
				return err
			}
		}
	}
	return nil
}

// absorbChain absorbs each scan at core, portfolio, the benchmark's own
// WAL, the lifecycle manager, the node handler in memory, the node over
// loopback, and the router. Every boundary absorbs its own copy under
// its own id.
func (c *chainTarget) absorbChain(ctx context.Context, scans []scan) error {
	w := newMemWriter()
	for i := range scans {
		s := &scans[i]
		id := fmt.Sprintf("%sabsorb-%d", tracePrefix, i)
		pr := c.owner(s.building)
		p := pr.m.Portfolio()
		sys, err := p.System(s.building)
		if err != nil {
			return err
		}
		copyOf := func(layer string) (dataset.Record, []byte) {
			rec := dataset.Record{ID: id + "-" + layer, Readings: s.rec.Readings}
			body, _ := json.Marshal(map[string]any{"id": rec.ID, "readings": rec.Readings})
			return rec, body
		}
		rCore, _ := copyOf("core")
		rPort, _ := copyOf("portfolio")
		rWAL, _ := copyOf("wal")
		rLife, _ := copyOf("lifecycle")
		_, bHandler := copyOf("handler")
		_, bNode := copyOf("node")
		_, bRouter := copyOf("router")
		req := memRequest("/v2/absorb", bHandler)
		if _, err := sys.Classify(ctx, &s.rec, readOpts...); err != nil {
			return err
		}
		steps := []struct {
			layer string
			f     func() error
		}{
			{"core", func() error { _, err := sys.Classify(ctx, &rCore, absorbOpts...); return err }},
			{"portfolio", func() error { _, err := p.AbsorbBuilding(ctx, s.building, &rPort, readOpts...); return err }},
			{"wal", func() error { return c.log.Append(wal.Record{Building: s.building, Scan: rWAL}) }},
			{"lifecycle", func() error { _, err := pr.m.AbsorbBuilding(ctx, s.building, &rLife, readOpts...); return err }},
			{"handler", func() error { return serveMem(pr.node, w, req) }},
			{"node", func() error { return c.post(ctx, pr.srv.url+"/v2/absorb", bNode) }},
			{"router", func() error { return c.post(ctx, c.routerU+"/v2/absorb", bRouter) }},
		}
		for _, st := range steps {
			if err := c.spans.timed(id, st.layer, st.f); err != nil {
				return err
			}
		}
	}
	return nil
}

// layerTimes is a chain's per-sample self time of each layer, in
// microseconds, plus the outermost span.
type layerTimes struct {
	order []string
	self  map[string][]float64
	e2e   []float64
}

// selfTimes derives self times from chain spans: each layer's span minus
// the span of the boundary just inside it (minus, for the lifecycle
// absorb, both the portfolio absorb and the WAL append it wraps).
func selfTimes(groups map[string]map[string][]span, absorb bool) layerTimes {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	lt := layerTimes{self: map[string][]float64{}}
	if absorb {
		lt.order = []string{"core.absorb", "portfolio.absorb_self", "wal.append", "lifecycle.absorb_self",
			"server.handler_self", "server.transport", "fleet.router_hop"}
	} else {
		lt.order = []string{"core.classify", "portfolio.self", "server.handler_self", "server.transport", "fleet.router_hop"}
	}
	for _, g := range groups {
		d := func(layer string) float64 { return us(g[layer][0].dur()) }
		if absorb {
			lt.self["core.absorb"] = append(lt.self["core.absorb"], d("core"))
			lt.self["portfolio.absorb_self"] = append(lt.self["portfolio.absorb_self"], d("portfolio")-d("core"))
			lt.self["wal.append"] = append(lt.self["wal.append"], d("wal"))
			lt.self["lifecycle.absorb_self"] = append(lt.self["lifecycle.absorb_self"], d("lifecycle")-d("portfolio")-d("wal"))
			lt.self["server.handler_self"] = append(lt.self["server.handler_self"], d("handler")-d("lifecycle"))
		} else {
			lt.self["core.classify"] = append(lt.self["core.classify"], d("core"))
			lt.self["portfolio.self"] = append(lt.self["portfolio.self"], d("portfolio")-d("core"))
			lt.self["portfolio.attribute"] = append(lt.self["portfolio.attribute"], d("attribute"))
			lt.self["server.handler_self"] = append(lt.self["server.handler_self"], d("handler")-d("portfolio"))
		}
		lt.self["server.transport"] = append(lt.self["server.transport"], d("node")-d("handler"))
		lt.self["fleet.router_hop"] = append(lt.self["fleet.router_hop"], d("router")-d("node"))
		lt.e2e = append(lt.e2e, d("router"))
	}
	return lt
}

// remainder is what the per-layer median self times leave of the median
// end-to-end span.
func (lt layerTimes) remainder() float64 {
	r := median(lt.e2e)
	for _, l := range lt.order {
		r -= median(lt.self[l])
	}
	return r
}

func (lt layerTimes) describe(path string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s path, median self time of %d idle samples (us):", path, len(lt.e2e))
	for _, l := range lt.order {
		fmt.Fprintf(&b, " %s %.1f |", l, median(lt.self[l]))
	}
	fmt.Fprintf(&b, " remainder %.1f = end-to-end %.1f", lt.remainder(), median(lt.e2e))
	return b.String()
}

// loadedSpans summarises the spans a traced load phase recorded: the
// median span of each layer per op kind, in microseconds.
func loadedSpans(groups map[string]map[string][]span, kindOf func(id string) opKind) map[opKind]map[string]float64 {
	per := map[opKind]map[string][]float64{}
	for id, g := range groups {
		k := kindOf(id)
		if per[k] == nil {
			per[k] = map[string][]float64{}
		}
		for layer, ss := range g {
			// A router read scatters to several nodes; it waits for the
			// slowest.
			longest := 0.0
			for _, s := range ss {
				longest = max(longest, float64(s.dur().Nanoseconds())/1e3)
			}
			per[k][layer] = append(per[k][layer], longest)
		}
	}
	out := map[opKind]map[string]float64{}
	for k, layers := range per {
		out[k] = map[string]float64{}
		for layer, xs := range layers {
			out[k][layer] = median(xs)
		}
	}
	return out
}

// allocsPerOp is the mean heap allocations of n calls of f.
func allocsPerOp(n int, f func(i int) error) (float64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		if err := f(i); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// fitStages times the three offline stages a fit runs, on each corpus in
// turn, by calling rfgraph, embed.TrainCtx and cluster.TrainCtx directly.
func fitStages(ctx context.Context, corpora [][]dataset.Record) (build, train, clust time.Duration, err error) {
	cfg := coreConfig()
	weight := core.WeightSpec{Kind: core.WeightOffset, Alpha: rfgraph.DefaultOffset}.Func()
	for _, recs := range corpora {
		t0 := time.Now()
		g := rfgraph.New(weight)
		ids, err := g.AddRecords(recs)
		if err != nil {
			return 0, 0, 0, err
		}
		t1 := time.Now()
		emb, err := embed.TrainCtx(ctx, g, cfg.Embed)
		if err != nil {
			return 0, 0, 0, err
		}
		t2 := time.Now()
		items := make([]cluster.Item, len(recs))
		for i := range recs {
			label := cluster.Unlabeled
			if recs[i].Labeled {
				label = recs[i].Floor
			}
			items[i] = cluster.Item{Index: i, Vec: emb.EgoOf(ids[i]), Label: label}
		}
		t3 := time.Now()
		if _, err := cluster.TrainCtx(ctx, items); err != nil {
			return 0, 0, 0, err
		}
		build += t1.Sub(t0)
		train += t2.Sub(t1)
		clust += time.Since(t3)
	}
	return build, train, clust, nil
}

// lagSampler measures replication lag: how long after the primary's WAL
// reaches a position the follower has applied through it. It polls both
// every 2ms from outside the program.
type lagSampler struct {
	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
	samples []float64 // milliseconds
}

func startLagSampler(pr *primary, f *follower) *lagSampler {
	ls := &lagSampler{stop: make(chan struct{}), done: make(chan struct{})}
	type pending struct {
		at  time.Time
		pos wal.Position
	}
	go func() {
		defer close(ls.done)
		var queue []pending
		epoch0, last, _ := pr.m.WALPosition()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-ls.stop:
				return
			case <-t.C:
			}
			epoch, pos, _ := pr.m.WALPosition()
			now := time.Now()
			if epoch != epoch0 {
				// The journal was truncated; positions restart.
				epoch0, last, queue = epoch, pos, nil
				continue
			}
			if last.Less(pos) {
				queue = append(queue, pending{now, pos})
				last = pos
			}
			ri := f.node.ReplInfo()
			for len(queue) > 0 && ri.Epoch == epoch && !ri.Applied.Less(queue[0].pos) {
				ls.samples = append(ls.samples, ms(now.Sub(queue[0].at)))
				queue = queue[1:]
			}
		}
	}()
	return ls
}

// finish stops the sampler and returns its samples; later calls return
// the same samples.
func (ls *lagSampler) finish() []float64 {
	ls.once.Do(func() { close(ls.stop) })
	<-ls.done
	return ls.samples
}

// heapSampler tracks the peak live heap the garbage collector has marked.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
	peak uint64
}

func startHeapSampler() *heapSampler {
	hs := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(hs.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				hs.peak = max(hs.peak, s[0].Value.Uint64())
			}
			select {
			case <-hs.stop:
				return
			case <-t.C:
			}
		}
	}()
	return hs
}

// finish stops the sampler and returns the peak in MiB; later calls
// return the same peak.
func (hs *heapSampler) finish() float64 {
	hs.once.Do(func() { close(hs.stop) })
	<-hs.done
	return float64(hs.peak) / (1 << 20)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
