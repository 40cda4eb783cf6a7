package core

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/embed"
)

// assertFreshSampler checks that the System's published negative sampler
// is bit-identical — nodes and alias table — to one built from scratch
// over its current graph and embedding.
func assertFreshSampler(t *testing.T, s *System, step string) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	fresh, err := embed.NewNegativeSampler(s.graph, s.emb)
	if err != nil {
		t.Fatalf("%s: NewNegativeSampler: %v", step, err)
	}
	if !reflect.DeepEqual(s.neg, fresh) {
		t.Fatalf("%s: published sampler differs from a fresh build", step)
	}
}

// TestPublishedSamplerMatchesFreshBuild: the memoized sampler builder
// must publish exactly what a cold build would, through absorbs (one
// introducing a MAC), retirements, a retired MAC that a later absorb
// brings back, and a Save/Load.
func TestPublishedSamplerMatchesFreshBuild(t *testing.T) {
	s, test := trainedSystem(t)
	ctx := context.Background()
	assertFreshSampler(t, s, "after fit")
	victim := test[0].Readings[0].MAC
	for i, rec := range test[:8] {
		switch i {
		case 2:
			rec.Readings = append(rec.Readings[:len(rec.Readings):len(rec.Readings)],
				dataset.Reading{MAC: "fe:ed:fa:ce:00:02", RSS: -57})
		case 6:
			// The retired AP is heard again: it comes back on a fresh node.
			rec.Readings = append(rec.Readings[:len(rec.Readings):len(rec.Readings)],
				dataset.Reading{MAC: victim, RSS: -49})
		}
		if _, err := s.Classify(ctx, &rec, WithAbsorb()); err != nil {
			t.Fatalf("absorb %d: %v", i, err)
		}
		assertFreshSampler(t, s, "absorb")
		if i == 3 {
			if err := s.RemoveMAC(victim); err != nil {
				t.Fatalf("RemoveMAC: %v", err)
			}
			assertFreshSampler(t, s, "RemoveMAC")
		}
	}
	if !s.HasMAC(victim) {
		t.Fatal("re-absorbed MAC still retired")
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	assertFreshSampler(t, loaded, "after load")
	s.mu.RLock()
	loaded.mu.RLock()
	same := reflect.DeepEqual(s.neg, loaded.neg)
	loaded.mu.RUnlock()
	s.mu.RUnlock()
	if !same {
		t.Fatal("loaded system publishes a different sampler than the saved one")
	}
}

// TestLiveAbsorbsMatchReplay: a primary that absorbed scans live and a
// follower restored from the pre-absorb snapshot that replays the same
// scans in order — the WAL position both reach — must hold the same
// model: bit-identical ego and context rows, and the same floors.
func TestLiveAbsorbsMatchReplay(t *testing.T) {
	train, test := campusSplit(t, 40, 4, 13)
	cfg := fastConfig()
	cfg.Embed.Strategy = embed.StrategyParity
	primary := New(cfg)
	if err := primary.AddTraining(train); err != nil {
		t.Fatalf("AddTraining: %v", err)
	}
	if err := primary.Fit(); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	var snap bytes.Buffer
	if err := primary.Save(&snap); err != nil {
		t.Fatalf("Save: %v", err)
	}
	follower, err := Load(&snap)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}

	const n = 12
	scans := append([]dataset.Record(nil), test[:n]...)
	scans[4].Readings = append(scans[4].Readings[:len(scans[4].Readings):len(scans[4].Readings)],
		dataset.Reading{MAC: "fe:ed:fa:ce:00:03", RSS: -61})
	ctx := context.Background()
	live := make([]int, n)
	for i := range scans {
		res, err := primary.Classify(ctx, &scans[i], WithAbsorb())
		if err != nil {
			t.Fatalf("live absorb %d: %v", i, err)
		}
		live[i] = res.Floor
	}
	for i := range scans {
		res, err := follower.Classify(ctx, &scans[i], WithAbsorb())
		if err != nil {
			t.Fatalf("replayed absorb %d: %v", i, err)
		}
		if res.Floor != live[i] {
			t.Errorf("scan %d: replay floor %d, live floor %d", i, res.Floor, live[i])
		}
	}

	primary.mu.RLock()
	defer primary.mu.RUnlock()
	follower.mu.RLock()
	defer follower.mu.RUnlock()
	if a, b := len(primary.emb.Ego), len(follower.emb.Ego); a != b {
		t.Fatalf("embedding rows: live %d, replay %d", a, b)
	}
	sameBits := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for d := range a {
			if math.Float64bits(a[d]) != math.Float64bits(b[d]) {
				return false
			}
		}
		return true
	}
	for id := range primary.emb.Ego {
		if !sameBits(primary.emb.Ego[id], follower.emb.Ego[id]) || !sameBits(primary.emb.Ctx[id], follower.emb.Ctx[id]) {
			t.Fatalf("node %d: live and replayed rows differ", id)
		}
	}
	if !reflect.DeepEqual(primary.neg, follower.neg) {
		t.Fatal("live and replayed systems publish different samplers")
	}
}

// TestAbsorbEmbedsLikeClassify: an absorb embeds its scan against the
// published sampler, the same one a read-only classification uses, so
// for a scan of known MACs and a fixed seed the two agree bit for bit.
func TestAbsorbEmbedsLikeClassify(t *testing.T) {
	s, test := trainedSystem(t)
	ctx := context.Background()
	for i := range test[:5] {
		want, err := s.Classify(ctx, &test[i], WithSeed(int64(40+i)))
		if err != nil {
			t.Fatalf("classify %d: %v", i, err)
		}
		got, err := s.Classify(ctx, &test[i], WithSeed(int64(40+i)), WithAbsorb())
		if err != nil {
			t.Fatalf("absorb %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scan %d: absorb result %+v, classify result %+v", i, got, want)
		}
	}
}
