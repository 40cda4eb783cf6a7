package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/embed"
)

// Learned is what one absorb learned, in the form a journal carries: the
// scan node's ego and context rows, the seed that initialized the rows of
// any MACs the scan introduced, and the fingerprint of the fitted model
// the rows were learned on. It is the after-image of the absorb's online
// embedding: ApplyLearned replays the absorb from it on a replica of the
// same fit without running the SGD again.
type Learned struct {
	Ego, Ctx []float64
	Seed     int64
	Model    uint64
}

// ErrStaleLearned reports journaled rows that ApplyLearned cannot use:
// none at all (a record written before rows were journaled), rows learned
// on a different fit, rows of the wrong length, or a non-finite value.
// The caller re-embeds the scan instead.
var ErrStaleLearned = errors.New("core: journaled rows do not fit this model")

// modelFingerprint names one fit: FNV-64a over the cluster model's
// labels and centroid bits. Fit and Load derive it, so it costs the
// snapshot format nothing, and a replica restored from a snapshot of the
// fit computes the same value as the primary that trained it.
func modelFingerprint(m *cluster.Model) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(len(m.Clusters)))
	for i := range m.Clusters {
		c := &m.Clusters[i]
		put(uint64(int64(c.Label)))
		put(uint64(len(c.Centroid)))
		for _, v := range c.Centroid {
			put(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// ApplyLearned keeps rec in the graph with the rows an absorb of it
// learned, instead of embedding it again: the scan is inserted exactly
// as an absorb inserts it, rows for any MACs it introduces are grown from
// l.Seed, the scan node gets l's rows, and the negative sampler is
// refreshed once. On the model the rows were learned on, and in the same
// graph state, the result is bit-identical to the absorb that produced l.
//
// Before anything is mutated it checks that l was learned on this fit
// (l.Model), that both rows have the embedding's dimension, and that
// every value is finite; failing any of them it returns ErrStaleLearned
// and the system is unchanged. Other errors match an absorb's
// (ErrNotTrained, ErrOutOfBuilding).
func (s *System) ApplyLearned(ctx context.Context, rec *dataset.Record, l Learned) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	if !s.trained {
		return ErrNotTrained
	}
	if err := s.checkLearnedLocked(&l); err != nil {
		return err
	}
	in, err := s.insertScanLocked(rec)
	if err != nil {
		return err
	}
	embed.PlaceNode(s.emb, s.graph.NumNodes(), in.id, l.Seed, slices.Clone(l.Ego), slices.Clone(l.Ctx))
	s.keepLocked(&in)
	return nil
}

// checkLearnedLocked returns ErrStaleLearned, with the reason, when l
// cannot be applied to this model.
//
//grafics:rlocked mu
func (s *System) checkLearnedLocked(l *Learned) error {
	if l.Model != s.fingerprint {
		return fmt.Errorf("%w: learned on fit %016x, serving %016x", ErrStaleLearned, l.Model, s.fingerprint)
	}
	if len(l.Ego) != s.emb.Dim || len(l.Ctx) != s.emb.Dim {
		return fmt.Errorf("%w: rows of length %d/%d, embedding dimension %d", ErrStaleLearned, len(l.Ego), len(l.Ctx), s.emb.Dim)
	}
	for _, row := range [2][]float64{l.Ego, l.Ctx} {
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: non-finite value %v", ErrStaleLearned, v)
			}
		}
	}
	return nil
}

// Inspect calls fn under the read lock with the live embedding tables and
// the published negative sampler: the state two replicas at the same
// journal position must hold bit for bit. It is for replica audits and
// tests; fn must neither modify nor retain what it is handed.
func (s *System) Inspect(fn func(emb *embed.Embedding, neg *embed.NegativeSampler)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fn(s.emb, s.neg)
}
