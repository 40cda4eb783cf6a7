package core

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/simulate"
)

// benchSystem builds a trained campus system and its query pool without a
// *testing.T, so both Benchmarks and examples can share it.
func benchSystem(b *testing.B, recordsPerFloor int) (*System, []dataset.Record) {
	b.Helper()
	corpus, err := simulate.Generate(simulate.Campus3F(recordsPerFloor, 7))
	if err != nil {
		b.Fatalf("simulate: %v", err)
	}
	rng := rand.New(rand.NewSource(8))
	train, test, err := dataset.Split(&corpus.Buildings[0], 0.7, rng)
	if err != nil {
		b.Fatalf("split: %v", err)
	}
	dataset.SelectLabels(train, 4, rng)
	cfg := Config{}
	cfg.Embed = embed.DefaultConfig()
	cfg.Embed.SamplesPerEdge = 40
	s := New(cfg)
	if err := s.AddTraining(train); err != nil {
		b.Fatalf("AddTraining: %v", err)
	}
	if err := s.Fit(); err != nil {
		b.Fatalf("Fit: %v", err)
	}
	return s, test
}

// BenchmarkClassify measures the read-only hot path exactly as the /v2
// server drives it: no embedding in the result, winner-only candidates.
func BenchmarkClassify(b *testing.B) {
	s, test := benchSystem(b, 40)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Classify(ctx, &test[i%len(test)], WithoutEmbedding()); err != nil {
			b.Fatalf("Classify: %v", err)
		}
	}
}

// BenchmarkClassifyTopK measures the ranked-candidates variant (the sort
// beyond the winner is only paid on this path).
func BenchmarkClassifyTopK(b *testing.B) {
	s, test := benchSystem(b, 40)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Classify(ctx, &test[i%len(test)], WithoutEmbedding(), WithTopK(-1)); err != nil {
			b.Fatalf("Classify: %v", err)
		}
	}
}

// BenchmarkClassifyParallel measures read-lock scaling across cores.
func BenchmarkClassifyParallel(b *testing.B) {
	s, test := benchSystem(b, 40)
	ctx := context.Background()
	b.ReportAllocs()
	b.SetParallelism(runtime.GOMAXPROCS(0))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := s.Classify(ctx, &test[i%len(test)], WithoutEmbedding()); err != nil {
				b.Fatalf("Classify: %v", err)
			}
			i++
		}
	})
}

// BenchmarkAbsorb measures the crowd write path on a HongKongLike-scale
// building: 10 floors of 120 m sides, about 4k graph nodes at fit,
// growing by one record node (and any new MACs) with every absorbed scan.
//
//   - live: graph insert, online embedding against the published sampler,
//     and the one sampler refresh that follows.
//   - replay: a replica of the fit applying the rows the live absorbs
//     journaled (ApplyLearned) — the same insert and refresh, no SGD.
func BenchmarkAbsorb(b *testing.B) {
	p := simulate.HongKongLike(200, 7)
	p.NumBuildings = 1
	p.FloorsMin, p.FloorsMax = 10, 10
	p.SideMin, p.SideMax = 120, 120
	corpus, err := simulate.Generate(p)
	if err != nil {
		b.Fatalf("simulate: %v", err)
	}
	rng := rand.New(rand.NewSource(8))
	train, stream, err := dataset.Split(&corpus.Buildings[0], 0.35, rng)
	if err != nil {
		b.Fatalf("split: %v", err)
	}
	dataset.SelectLabels(train, 8, rng)
	cfg := Config{}
	cfg.Embed = embed.DefaultConfig()
	cfg.Embed.SamplesPerEdge = 40
	s := New(cfg)
	if err := s.AddTraining(train); err != nil {
		b.Fatalf("AddTraining: %v", err)
	}
	if err := s.Fit(); err != nil {
		b.Fatalf("Fit: %v", err)
	}
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		b.Fatalf("Save: %v", err)
	}
	fitted := func(b *testing.B) *System {
		sys, err := Load(bytes.NewReader(snap.Bytes()))
		if err != nil {
			b.Fatalf("Load: %v", err)
		}
		return sys
	}
	ctx := context.Background()
	reportNodes := func(b *testing.B, sys *System) {
		st := sys.Stats()
		b.ReportMetric(float64(st.Records+st.MACs), "nodes")
	}
	b.Run("live", func(b *testing.B) {
		sys := fitted(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Classify(ctx, &stream[i%len(stream)], WithAbsorb(), WithoutEmbedding()); err != nil {
				b.Fatalf("absorb: %v", err)
			}
		}
		b.StopTimer()
		reportNodes(b, sys)
	})
	// One pass of live absorbs over the stream supplies the journaled
	// rows; past the stream the replica re-applies them in order, as it
	// would a second pass.
	learned := make([]Learned, len(stream))
	primary := fitted(b)
	for i := range stream {
		if _, learned[i], err = primary.DoAbsorb(ctx, NewRequest(&stream[i], WithoutEmbedding())); err != nil {
			b.Fatalf("absorb: %v", err)
		}
	}
	b.Run("replay", func(b *testing.B) {
		sys := fitted(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sys.ApplyLearned(ctx, &stream[i%len(stream)], learned[i%len(stream)]); err != nil {
				b.Fatalf("apply: %v", err)
			}
		}
		b.StopTimer()
		reportNodes(b, sys)
	})
}
