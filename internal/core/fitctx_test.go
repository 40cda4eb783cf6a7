package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestFitCtxCancelled: a cancelled context aborts Fit cleanly — error is
// the context's, the system stays untrained, and a later Fit with a live
// context succeeds (no partial state left behind).
func TestFitCtxCancelled(t *testing.T) {
	train, _ := campusSplit(t, 30, 4, 11)
	s := New(fastConfig())
	if err := s.AddTraining(train); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.FitCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("FitCtx(cancelled) = %v, want context.Canceled", err)
	}
	if s.Trained() {
		t.Fatal("cancelled fit left the system trained")
	}
	if err := s.FitCtx(context.Background()); err != nil {
		t.Fatalf("FitCtx after cancelled attempt: %v", err)
	}
	if !s.Trained() {
		t.Fatal("system not trained after successful FitCtx")
	}
}

// TestSamplerRebuildFailureSurfaced: retiring every MAC leaves a graph the
// negative sampler cannot be rebuilt from; the failure must be counted
// and visible in Stats instead of silently swallowed, while the system
// keeps serving off the stale sampler.
func TestSamplerRebuildFailureSurfaced(t *testing.T) {
	s, _ := trainedSystem(t)
	if n, msg := s.SamplerRebuildFailures(); n != 0 || msg != "" {
		t.Fatalf("fresh system reports %d sampler failures (%q)", n, msg)
	}
	for _, mac := range s.MACs() {
		if err := s.RemoveMAC(mac); err != nil {
			t.Fatalf("RemoveMAC(%s): %v", mac, err)
		}
	}
	n, msg := s.SamplerRebuildFailures()
	if n == 0 {
		t.Fatal("sampler rebuild failures not counted after retiring every MAC")
	}
	if msg == "" || !strings.Contains(msg, "alias") {
		t.Errorf("last sampler error %q, want the alias-table failure", msg)
	}
	st := s.Stats()
	if st.SamplerRebuildFailures != n || st.LastSamplerError != msg {
		t.Errorf("Stats() = (%d, %q), want (%d, %q)",
			st.SamplerRebuildFailures, st.LastSamplerError, n, msg)
	}
}

// TestClassifyServesStaleSamplerAfterFailedRebuild: when a rebuild
// fails, the sampler published before it must keep serving unchanged —
// node list and alias table, after absorbs have cycled the builder's
// node buffers — so a fixed-seed classification reproduces its
// pre-failure result exactly, and every failure is counted.
func TestClassifyServesStaleSamplerAfterFailedRebuild(t *testing.T) {
	s, test := trainedSystem(t)
	ctx := context.Background()
	for i := range test[:2] {
		if _, err := s.Classify(ctx, &test[i], WithAbsorb()); err != nil {
			t.Fatalf("absorb %d: %v", i, err)
		}
	}
	scan := &test[2]
	want, err := s.Classify(ctx, scan, WithSeed(5))
	if err != nil {
		t.Fatalf("Classify before the failure: %v", err)
	}
	// Detach every record node: the MACs stay known (a scan can still be
	// classified) but no trained node keeps an edge, so the sampler
	// cannot be rebuilt.
	s.mu.Lock()
	for _, id := range s.graph.RecordNodes() {
		if err := s.graph.RemoveRecord(s.graph.Name(id)); err != nil {
			s.mu.Unlock()
			t.Fatalf("RemoveRecord: %v", err)
		}
	}
	s.refreshSampler()
	s.refreshSampler()
	s.mu.Unlock()
	if n, msg := s.SamplerRebuildFailures(); n != 2 || msg == "" {
		t.Fatalf("SamplerRebuildFailures = (%d, %q), want 2 failures and a message", n, msg)
	}
	got, err := s.Classify(ctx, scan, WithSeed(5))
	if err != nil {
		t.Fatalf("Classify on the stale sampler: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stale-sampler result %+v, want the pre-failure %+v", got, want)
	}
}
