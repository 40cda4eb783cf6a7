package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/dataset"
)

// TestApplyLearnedRejectsWithoutMutation: rows that do not fit the model
// fail with ErrStaleLearned before anything changes, and the rows an
// absorb journaled do apply on a replica loaded from the same fit (whose
// fingerprint survives Save/Load).
func TestApplyLearnedRejectsWithoutMutation(t *testing.T) {
	s, test := trainedSystem(t)
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatalf("Save: %v", err)
	}
	replica, err := Load(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if replica.fingerprint != s.fingerprint || s.fingerprint == 0 {
		t.Fatalf("fingerprint %016x after Load, %016x at Fit", replica.fingerprint, s.fingerprint)
	}
	ctx := context.Background()
	scan := test[0]
	const newMAC = "fe:ed:fa:ce:00:07"
	scan.Readings = append(scan.Readings[:len(scan.Readings):len(scan.Readings)], dataset.Reading{MAC: newMAC, RSS: -60})
	_, learned, err := s.DoAbsorb(ctx, NewRequest(&scan))
	if err != nil {
		t.Fatalf("DoAbsorb: %v", err)
	}
	if learned.Model != s.fingerprint || len(learned.Ego) != s.emb.Dim || len(learned.Ctx) != s.emb.Dim {
		t.Fatalf("learned = %+v, want rows of dimension %d on fit %016x", learned, s.emb.Dim, s.fingerprint)
	}

	before := replica.Stats()
	stale := []Learned{
		{},
		{Ego: learned.Ego, Ctx: learned.Ctx, Seed: learned.Seed, Model: learned.Model + 1},
		{Ego: learned.Ego[:1], Ctx: learned.Ctx, Seed: learned.Seed, Model: learned.Model},
		{Ego: learned.Ego, Ctx: []float64{math.NaN(), 0, 0, 0, 0, 0, 0, 0}, Seed: learned.Seed, Model: learned.Model},
	}
	for i, l := range stale {
		if err := replica.ApplyLearned(ctx, &scan, l); !errors.Is(err, ErrStaleLearned) {
			t.Fatalf("stale rows %d: err %v, want ErrStaleLearned", i, err)
		}
	}
	if got := replica.Stats(); got != before || replica.HasMAC(newMAC) || replica.AbsorbedRecords() != 0 {
		t.Fatalf("stale rows changed the replica: %+v -> %+v", before, got)
	}

	if err := replica.ApplyLearned(ctx, &scan, learned); err != nil {
		t.Fatalf("ApplyLearned: %v", err)
	}
	if got, want := replica.Stats(), s.Stats(); got != want || !replica.HasMAC(newMAC) {
		t.Fatalf("replica stats %+v, primary %+v", got, want)
	}
	if got, want := replica.emb.Ego[len(replica.emb.Ego)-1], s.emb.Ego[len(s.emb.Ego)-1]; !sameRow(got, want) {
		t.Fatalf("last row %v, primary %v", got, want)
	}
}

// sameRow compares two rows bit for bit.
func sameRow(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
