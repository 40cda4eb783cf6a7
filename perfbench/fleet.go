package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/fleet"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/portfolio"
	"repro/internal/wal"
)

// coreConfig is the daemon's default model configuration: paper
// hyperparameters with Hogwild fits over GOMAXPROCS workers.
func coreConfig() core.Config {
	ecfg := embed.DefaultConfig()
	ecfg.Strategy = embed.StrategyFast
	return core.Config{Embed: ecfg}
}

// lifecycleOptions is a primary's journal policy: fsync every append,
// automatic refits off (the workloads force the one refit they time).
func lifecycleOptions(dir string) lifecycle.Options {
	return lifecycle.Options{StateDir: dir, WAL: wal.Options{SyncEvery: 1}}
}

// loopback is an in-process net/http server on 127.0.0.1.
type loopback struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &loopback{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

func (s *loopback) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close()
	}
	<-s.done
}

// tap wraps a server's handler on the benchmark side of the boundary. It
// counts classify requests (how many node requests one router read
// costs) and, for requests carrying a benchmark trace id, records the
// handler's span.
type tap struct {
	layer     string
	next      http.Handler
	classifys atomic.Int64
	spans     *spanLog // nil: never record
}

func (t *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == "/v2/classify" {
		t.classifys.Add(1)
	}
	id := r.Header.Get(obs.TraceHeader)
	if t.spans == nil || !strings.HasPrefix(id, tracePrefix) {
		t.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	t.next.ServeHTTP(w, r)
	t.spans.add(id, t.layer, start, time.Now())
}

// primary is one shard group's primary node: a journaling lifecycle
// manager behind a fleet node on loopback.
type primary struct {
	m    *lifecycle.Manager
	node *fleet.Node
	tap  *tap
	srv  *loopback
}

// follower is an async read replica on loopback.
type follower struct {
	node *fleet.Node
	tap  *tap
	srv  *loopback
}

// router fronts shard groups on loopback.
type router struct {
	rt  *fleet.Router
	tap *tap
	srv *loopback
}

// deployment is everything one bring-up started; close stops all of it.
type deployment struct {
	dir       string
	ctx       context.Context
	cancel    context.CancelFunc
	spans     *spanLog
	primaries []*primary
	follower  *follower
	router    *router
}

func newDeployment(dir string, spans *spanLog) (*deployment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &deployment{dir: dir, ctx: ctx, cancel: cancel, spans: spans}, nil
}

// addPrimary fits bs into a fresh journaled portfolio, snapshots it, and
// serves it as a shard primary.
func (d *deployment) addPrimary(bs []*building) (*primary, error) {
	dir := filepath.Join(d.dir, fmt.Sprintf("primary-%d", len(d.primaries)))
	m, err := lifecycle.OpenCtx(d.ctx, coreConfig(), lifecycleOptions(dir))
	if err != nil {
		return nil, err
	}
	pr := &primary{m: m}
	d.primaries = append(d.primaries, pr)
	corpora := make([]portfolio.BuildingCorpus, len(bs))
	for i, b := range bs {
		corpora[i] = portfolio.BuildingCorpus{Name: b.name, Train: b.train}
	}
	if err := m.Portfolio().AddBuildings(d.ctx, corpora, 0); err != nil {
		return nil, err
	}
	if err := m.Snapshot(); err != nil {
		return nil, err
	}
	pr.node, err = fleet.NewPrimaryNode(d.ctx, m, fleet.NodeOptions{StateDir: dir, Lifecycle: lifecycleOptions(dir)})
	if err != nil {
		return nil, err
	}
	pr.tap = &tap{layer: "node", next: pr.node, spans: d.spans}
	pr.srv, err = serve(pr.tap)
	return pr, err
}

// addFollower bootstraps an async follower of pr at the daemon's default
// poll interval and waits until it reports ready.
func (d *deployment) addFollower(pr *primary) (*follower, error) {
	dir := filepath.Join(d.dir, "follower")
	node, err := fleet.NewFollowerNode(d.ctx, fleet.NodeOptions{
		StateDir:  dir,
		Lifecycle: lifecycleOptions(dir),
		Follower:  fleet.FollowerOptions{Primary: pr.srv.url, Config: coreConfig()},
	})
	if err != nil {
		return nil, err
	}
	f := &follower{node: node}
	d.follower = f
	node.Start(d.ctx)
	f.tap = &tap{layer: "follower", next: node}
	if f.srv, err = serve(f.tap); err != nil {
		return nil, err
	}
	err = waitFor(d.ctx, 60*time.Second, func() bool { return node.ReplInfo().Ready })
	if err != nil {
		return nil, fmt.Errorf("follower bootstrap: %w", err)
	}
	return f, nil
}

// addRouter fronts groups (primary URLs per shard group) with a router
// and waits until it reports the fleet healthy.
func (d *deployment) addRouter(groups [][]string) (*router, error) {
	rt, err := fleet.NewRouter(fleet.RouterOptions{Groups: groups})
	if err != nil {
		return nil, err
	}
	r := &router{rt: rt}
	d.router = r
	rt.Start(d.ctx)
	r.tap = &tap{layer: "router", next: rt, spans: d.spans}
	if r.srv, err = serve(r.tap); err != nil {
		return nil, err
	}
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	err = waitFor(d.ctx, 30*time.Second, func() bool {
		resp, err := hc.Get(r.srv.url + "/v2/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	if err != nil {
		return nil, fmt.Errorf("router ready: %w", err)
	}
	return r, nil
}

// close stops servers and background loops, closes every journal, and
// removes the state directories.
func (d *deployment) close() error {
	if d.router != nil {
		d.router.rt.Stop()
		if d.router.srv != nil {
			d.router.srv.close()
		}
	}
	if f := d.follower; f != nil {
		_ = f.node.Close()
		if f.srv != nil {
			f.srv.close()
		}
	}
	var errs []error
	for _, pr := range d.primaries {
		if pr.srv != nil {
			pr.srv.close()
		}
		if pr.node != nil {
			_ = pr.node.Close()
		}
		errs = append(errs, pr.m.Close())
	}
	d.cancel()
	errs = append(errs, os.RemoveAll(d.dir))
	return errors.Join(errs...)
}

// waitFollower waits until the follower is ready and has applied through
// its primary's current WAL position in the same epoch.
func waitFollower(ctx context.Context, d *deployment) error {
	m := d.primaries[0].m
	return waitFor(ctx, 60*time.Second, func() bool {
		epoch, pos, _ := m.WALPosition()
		ri := d.follower.node.ReplInfo()
		return ri.Ready && ri.Epoch == epoch && ri.Applied == pos
	})
}

// waitFor polls cond every millisecond until it holds or timeout passes.
func waitFor(ctx context.Context, timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("not reached within %v", timeout)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}
