package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/server"
)

// opKind is what a request asks of the system.
type opKind int

const (
	opRead opKind = iota
	opAbsorb
)

func (k opKind) String() string {
	if k == opAbsorb {
		return "absorb"
	}
	return "read"
}

func (k opKind) path() string {
	if k == opAbsorb {
		return "/v2/absorb"
	}
	return "/v2/classify"
}

// op is one scheduled request. traceID is set only on the requests a
// traced phase records spans for.
type op struct {
	kind    opKind
	scan    scan
	traceID string
}

// outcome is what happened to one op. Times are offsets from the
// phase's start; for open-loop ops, due is the scheduled send time.
type outcome struct {
	due, sent, done time.Duration
	status          int
	body            []byte
	err             error
}

func (o *outcome) latency() time.Duration { return o.done - o.due }

// generator is the single load generator: one HTTP client whose
// transport never holds more than conns connections per host, and at
// most conns requests in flight.
type generator struct {
	hc    *http.Client
	conns int
}

func newGenerator(conns int) *generator {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &generator{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, conns: conns}
}

func (g *generator) close() { g.hc.CloseIdleConnections() }

func (g *generator) do(ctx context.Context, base string, o *op) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+o.kind.path(), bytes.NewReader(o.scan.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if o.traceID != "" {
		req.Header.Set(obs.TraceHeader, o.traceID)
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// phase is one measured stretch of load and its raw outcomes.
type phase struct {
	name  string
	open  bool
	rate  float64 // open loop: requests per second
	ops   []op
	out   []outcome
	start time.Time
	wall  time.Duration
	cpu   time.Duration // closed loop: CPU time the process used
}

// runOpen sends ops on a fixed schedule, one every 1/rate seconds. A
// request whose slot is due while every connection is busy waits, and
// its latency still counts from when it was due.
func (g *generator) runOpen(ctx context.Context, name, base string, ops []op, rate float64, spans *spanLog) *phase {
	interval := time.Duration(float64(time.Second) / rate)
	p := &phase{name: name, open: true, rate: rate, ops: ops, out: make([]outcome, len(ops))}
	p.start = time.Now().Add(20 * time.Millisecond)
	g.drive(ctx, p, base, spans, func(i int) time.Duration { return time.Duration(i) * interval })
	return p
}

// runClosed sends ops back to back over every connection: each
// connection's next request goes out when its previous reply is in.
func (g *generator) runClosed(ctx context.Context, name, base string, ops []op, spans *spanLog) *phase {
	p := &phase{name: name, ops: ops, out: make([]outcome, len(ops))}
	cpu0 := processCPU()
	p.start = time.Now()
	g.drive(ctx, p, base, spans, nil)
	p.cpu = processCPU() - cpu0
	return p
}

// processCPU is the user and system CPU time of every thread of the
// process. The guest kernel leaves out time the hypervisor gave the vCPU
// to another guest (steal), which wall time includes.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// drive runs conns workers that claim ops in order. With schedule set a
// worker sleeps until the op is due; otherwise an op is due when claimed.
func (g *generator) drive(ctx context.Context, p *phase, base string, spans *spanLog, schedule func(int) time.Duration) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < g.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(p.ops) {
					return
				}
				o := &p.out[i]
				if schedule != nil {
					o.due = schedule(i)
					if d := time.Until(p.start.Add(o.due)); d > 0 {
						time.Sleep(d)
					}
				} else {
					o.due = time.Since(p.start)
				}
				sent := time.Now()
				o.sent = sent.Sub(p.start)
				o.status, o.body, o.err = g.do(ctx, base, &p.ops[i])
				end := time.Now()
				o.done = end.Sub(p.start)
				if id := p.ops[i].traceID; id != "" && spans != nil {
					spans.add(id, "client", sent, end)
				}
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(p.start)
}

// graded is a phase's outcomes checked against ground truth.
type graded struct {
	phase            *phase
	sent, ok, failed int
	firstFailure     string
	lat              map[opKind][]float64 // milliseconds, successful ops only
	traced, plain    map[opKind][]float64 // lat split by whether the op was traced
	late             []float64            // open loop: milliseconds the send ran behind schedule
	reads            []prediction
}

// prediction pairs a read's true floor with the floor the system
// answered; grading has already checked the answer names the scan's
// building.
type prediction struct {
	building          string
	truthFloor, floor int
}

// grade checks every outcome: a 2xx answer naming the scan's building and
// a floor that building has. Anything else is a failed op.
func grade(p *phase, floors map[string]map[int]bool) *graded {
	g := &graded{phase: p, lat: map[opKind][]float64{}, traced: map[opKind][]float64{}, plain: map[opKind][]float64{}}
	for i := range p.out {
		o, op := &p.out[i], &p.ops[i]
		g.sent++
		if p.open {
			g.late = append(g.late, ms(o.sent-o.due))
		}
		err := o.err
		var resp server.ClassifyResponse
		if err == nil && (o.status < 200 || o.status > 299) {
			err = fmt.Errorf("status %d: %s", o.status, bytes.TrimSpace(o.body))
		}
		if err == nil {
			if jerr := json.Unmarshal(o.body, &resp); jerr != nil {
				err = fmt.Errorf("decode reply: %w", jerr)
			}
		}
		if err == nil && resp.Building != op.scan.building {
			err = fmt.Errorf("attributed to %q, scan is from %q", resp.Building, op.scan.building)
		}
		if err == nil && !floors[resp.Building][resp.Floor] {
			err = fmt.Errorf("floor %d is not a floor of %q", resp.Floor, resp.Building)
		}
		if err == nil && op.kind == opAbsorb && !resp.Absorbed {
			err = fmt.Errorf("absorb not acknowledged")
		}
		if err != nil {
			g.failed++
			if g.firstFailure == "" {
				g.firstFailure = fmt.Sprintf("%s %s %s: %v", p.name, op.kind, op.scan.rec.ID, err)
			}
			continue
		}
		g.ok++
		g.lat[op.kind] = append(g.lat[op.kind], ms(o.latency()))
		if op.traceID != "" {
			g.traced[op.kind] = append(g.traced[op.kind], ms(o.latency()))
		} else {
			g.plain[op.kind] = append(g.plain[op.kind], ms(o.latency()))
		}
		if op.kind == opRead {
			g.reads = append(g.reads, prediction{op.scan.building, op.scan.floor, resp.Floor})
		}
	}
	return g
}

// count returns how many ops of kind the phase holds.
func (g *graded) count(kind opKind) int {
	n := 0
	for i := range g.phase.ops {
		if g.phase.ops[i].kind == kind {
			n++
		}
	}
	return n
}

// describe is the phase's report line.
func (g *graded) describe() string {
	p := g.phase
	s := fmt.Sprintf("phase %-16s sent %5d ok %5d failed %d wall %.3fs", p.name, g.sent, g.ok, g.failed, p.wall.Seconds())
	if p.open {
		s += fmt.Sprintf(" rate %.0f/s late p50 %.3fms p99 %.3fms max %.3fms", p.rate,
			quantile(g.late, 0.5), quantile(g.late, 0.99), quantile(g.late, 1))
	} else {
		s += fmt.Sprintf(" throughput %.1f ops/s, capacity %.1f ops/s over %.3fs CPU, per block", p.throughput(), p.capacity(), p.cpu.Seconds())
		for _, t := range p.blockThroughputs() {
			s += fmt.Sprintf(" %.1f", t)
		}
	}
	for _, k := range []opKind{opRead, opAbsorb} {
		if l := g.lat[k]; len(l) > 0 {
			s += fmt.Sprintf(" | %s p50 %.3fms p99 %.3fms n=%d, block p99s", k, median(l), quantile(l, 0.99), len(l))
			for _, b := range blocks(len(l)) {
				s += fmt.Sprintf(" %.2f", quantile(l[b[0]:b[1]], 0.99))
			}
		}
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of xs (q=1 is the maximum).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median of xs: the middle value, or the mean of the middle two.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 || n%2 == 1 {
		return quantile(xs, 0.5)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[n/2-1] + s[n/2]) / 2
}

// blockSize is how many samples of one op kind a block holds: enough
// that a block's p99 has ten samples beyond it.
const blockSize = 1000

// blocks returns the [start, end) bounds of n samples cut into blocks.
func blocks(n int) [][2]int {
	k := max(n/blockSize, 1)
	out := make([][2]int, k)
	for i := range out {
		out[i] = [2]int{i * blockSize, (i + 1) * blockSize}
	}
	out[k-1][1] = n
	return out
}

// throughput is a closed-loop phase's completions per second: its fixed
// op count over its wall time.
func (p *phase) throughput() float64 { return float64(len(p.out)) / p.wall.Seconds() }

// capacity is a closed-loop phase's op count per second of the CPU time
// the whole process (nodes, router, follower and generator) used for it,
// times GOMAXPROCS: the rate GOMAXPROCS cores would complete the same ops
// at if they ran nothing else and were never taken away. It is NaN when
// no CPU time was measured.
//
// On a shared 2-vCPU VM the hypervisor takes 0-30% of each vCPU's time
// in stretches of seconds to minutes, and wall throughput follows: over
// twelve crowd-replicated closed loops in one busy half hour (half of them
// beside a CPU- and fsync-heavy process), count/wall ranged 409-626
// ops/s and this figure 594-707. It still moves with the host, as each op
// costs more CPU in busy stretches (median 750 over ten seeds in a quiet
// one, 624 over five in a busy one), and it does not see time spent
// waiting with the cores idle (fsync, locks); the per-phase wall
// throughput and latencies in the log do.
func (p *phase) capacity() float64 {
	if p.cpu <= 0 {
		return math.NaN()
	}
	return float64(runtime.GOMAXPROCS(0)) * float64(len(p.out)) / p.cpu.Seconds()
}

// blockThroughputs are the completions per second of each block of
// blockSize consecutive completions, for the phase's report line.
func (p *phase) blockThroughputs() []float64 {
	done := make([]float64, len(p.out))
	for i := range p.out {
		done[i] = p.out[i].done.Seconds()
	}
	sort.Float64s(done)
	var per []float64
	for _, b := range blocks(len(done)) {
		start := 0.0
		if b[0] > 0 {
			start = done[b[0]-1]
		}
		per = append(per, float64(b[1]-b[0])/(done[b[1]-1]-start))
	}
	return per
}

// fScores returns micro-F and macro-F of the reads as the paper and
// experiment.EvalCorpus compute them: per building over its floors, then
// averaged over buildings.
func fScores(reads []prediction) (micro, macro float64, err error) {
	truth, pred := map[string][]int{}, map[string][]int{}
	for _, r := range reads {
		truth[r.building] = append(truth[r.building], r.truthFloor)
		pred[r.building] = append(pred[r.building], r.floor)
	}
	if len(truth) == 0 {
		return 0, 0, fmt.Errorf("no graded reads")
	}
	for _, b := range sortedKeys(truth) {
		rep, err := metrics.Evaluate(truth[b], pred[b])
		if err != nil {
			return 0, 0, fmt.Errorf("building %s: %w", b, err)
		}
		micro += rep.MicroF
		macro += rep.MacroF
	}
	n := float64(len(truth))
	return micro / n, macro / n, nil
}
