package lifecycle

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/portfolio"
	"repro/internal/wal"
)

// assertSameModel checks that two systems hold bit-identical embedding
// rows for every node slot and deep-equal published negative samplers.
func assertSameModel(t *testing.T, live, replayed *core.System) {
	t.Helper()
	live.Inspect(func(le *embed.Embedding, ln *embed.NegativeSampler) {
		replayed.Inspect(func(re *embed.Embedding, rn *embed.NegativeSampler) {
			if len(le.Ego) != len(re.Ego) {
				t.Fatalf("embedding rows: live %d, replayed %d", len(le.Ego), len(re.Ego))
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
			for id := range le.Ego {
				if !sameBits(le.Ego[id], re.Ego[id]) || !sameBits(le.Ctx[id], re.Ctx[id]) {
					t.Fatalf("node %d: live and replayed rows differ", id)
				}
			}
			if !reflect.DeepEqual(ln, rn) {
				t.Fatal("live and replayed systems publish different negative samplers")
			}
		})
	})
}

// TestReplicasAgreeUnderReads: a replica restored from the pre-absorb
// snapshot that replays the journal through ApplyRecord holds exactly the
// primary's model, even though the primary served a read before every
// absorb (reads advance the primary's prediction sequence, never the
// replica's) and one absorb introduced a MAC. The absorbs go through all
// three journal sites, so each must journal what its absorb learned.
func TestReplicasAgreeUnderReads(t *testing.T) {
	dir := t.TempDir()
	train, test := campus(t, 30, 41)
	m := openManaged(t, dir, Policy{}, train)
	snapDir := t.TempDir()
	if _, _, err := m.CaptureSnapshot(snapDir); err != nil {
		t.Fatalf("CaptureSnapshot: %v", err)
	}

	const n = 9
	scans := append([]dataset.Record(nil), test[:n]...)
	scans[4].Readings = append(scans[4].Readings[:len(scans[4].Readings):len(scans[4].Readings)],
		dataset.Reading{MAC: "fe:ed:fa:ce:00:04", RSS: -58})
	ctx := context.Background()
	reembeds := replayReembedsTotal.Load()
	for i := range scans {
		if _, err := m.Classify(ctx, &test[len(test)-1-i]); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		var err error
		switch i % 3 {
		case 0:
			_, err = m.Classify(ctx, &scans[i], core.WithAbsorb())
		case 1:
			_, errs := m.ClassifyBatch(ctx, scans[i:i+1], core.WithAbsorb())
			err = errs[0]
		case 2:
			_, err = m.AbsorbBuilding(ctx, "campus", &scans[i])
		}
		if err != nil {
			t.Fatalf("absorb %d: %v", i, err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	replica, err := portfolio.LoadPortfolio(snapDir, fastConfig())
	if err != nil {
		t.Fatalf("LoadPortfolio: %v", err)
	}
	applied, err := wal.Replay(walPath(dir), func(r wal.Record) error {
		return ApplyRecord(ctx, replica, r)
	})
	if err != nil || applied != n {
		t.Fatalf("replay applied %d records (%v), want %d", applied, err, n)
	}
	if got := replayReembedsTotal.Load() - reembeds; got != 0 {
		t.Fatalf("%d journaled absorbs were re-embedded, want every one applied from its rows", got)
	}

	live, err := m.Portfolio().System("campus")
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := replica.System("campus")
	if err != nil {
		t.Fatal(err)
	}
	assertSameModel(t, live, replayed)
	if !replayed.HasMAC("fe:ed:fa:ce:00:04") {
		t.Fatal("replica lost the MAC an absorb introduced")
	}
	for i := range test {
		a, err := live.Classify(ctx, &test[i], core.WithSeed(int64(i)))
		if err != nil {
			t.Fatalf("live classify %d: %v", i, err)
		}
		b, err := replayed.Classify(ctx, &test[i], core.WithSeed(int64(i)))
		if err != nil {
			t.Fatalf("replayed classify %d: %v", i, err)
		}
		if a.Floor != b.Floor || a.Distance != b.Distance {
			t.Fatalf("scan %d: live floor %d at %v, replayed floor %d at %v", i, a.Floor, a.Distance, b.Floor, b.Distance)
		}
	}
}

// parentRecord is wal.Record as it was before journaled rows: gob matches
// fields by name, so a frame of this shape is what an older primary wrote.
type parentRecord struct {
	Building  string
	Scan      dataset.Record
	RetireMAC string
}

// writeFrame writes one framed gob payload as the only segment of a log
// directory, in the wal package's frame layout (length, CRC-32, payload).
func writeFrame(t *testing.T, dir string, v any) {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		t.Fatalf("encode: %v", err)
	}
	frame := make([]byte, 8+payload.Len())
	binary.LittleEndian.PutUint32(frame[0:4], uint32(payload.Len()))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload.Bytes()))
	copy(frame[8:], payload.Bytes())
	if err := os.WriteFile(wal.SegmentPath(dir, 0), frame, 0o644); err != nil {
		t.Fatalf("write segment: %v", err)
	}
}

// TestReplayFallsBackToReembed: a journaled absorb whose rows cannot be
// applied — a frame in the pre-rows record shape, rows learned on another
// fit, rows of the wrong length, a NaN or an infinity — is still
// replayed, by embedding the scan again, and each such replay is counted.
// Rows that do fit are applied without a re-embed.
func TestReplayFallsBackToReembed(t *testing.T) {
	train, test := campus(t, 30, 43)
	ctx := context.Background()
	fit := func(seed int64) *portfolio.Portfolio {
		cfg := fastConfig()
		cfg.Embed.Seed = seed
		p := portfolio.New(cfg)
		if err := p.AddBuilding("campus", train); err != nil {
			t.Fatalf("AddBuilding: %v", err)
		}
		return p
	}
	primary, other := fit(1), fit(2)
	snapDir := t.TempDir()
	if err := primary.Save(snapDir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	scan := test[0]
	learnedOn := func(p *portfolio.Portfolio) core.Learned {
		routed, err := p.AbsorbBuilding(ctx, "campus", &scan)
		if err != nil {
			t.Fatalf("AbsorbBuilding: %v", err)
		}
		return routed.Learned
	}
	good, foreign := learnedOn(primary), learnedOn(other)
	edit := func(f func(l *core.Learned)) core.Learned {
		l := core.Learned{Ego: append([]float64(nil), good.Ego...), Ctx: append([]float64(nil), good.Ctx...), Seed: good.Seed, Model: good.Model}
		f(&l)
		return l
	}

	cases := []struct {
		name    string
		learned core.Learned
		parent  bool // journal the pre-rows record shape instead
		reembed bool
	}{
		{name: "rows fit", learned: good},
		{name: "parent record shape", parent: true, reembed: true},
		{name: "other fit", learned: foreign, reembed: true},
		{name: "short ego", learned: edit(func(l *core.Learned) { l.Ego = l.Ego[:len(l.Ego)-1] }), reembed: true},
		{name: "long ctx", learned: edit(func(l *core.Learned) { l.Ctx = append(l.Ctx, 0) }), reembed: true},
		{name: "NaN", learned: edit(func(l *core.Learned) { l.Ctx[3] = math.NaN() }), reembed: true},
		{name: "infinity", learned: edit(func(l *core.Learned) { l.Ego[0] = math.Inf(-1) }), reembed: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			replica, err := portfolio.LoadPortfolio(snapDir, fastConfig())
			if err != nil {
				t.Fatalf("LoadPortfolio: %v", err)
			}
			sys, err := replica.System("campus")
			if err != nil {
				t.Fatal(err)
			}
			walDir := t.TempDir()
			if tc.parent {
				writeFrame(t, walDir, &parentRecord{Building: "campus", Scan: scan})
			} else {
				writeFrame(t, walDir, absorbRecord("campus", &scan, tc.learned))
			}
			before := replayReembedsTotal.Load()
			if _, err := wal.Replay(walDir, func(r wal.Record) error {
				if tc.parent && (r.Ego != nil || r.Ctx != nil || r.Seed != 0 || r.Model != 0) {
					t.Fatalf("pre-rows frame decoded with rows: %+v", r)
				}
				return ApplyRecord(ctx, replica, r)
			}); err != nil {
				t.Fatalf("replay: %v", err)
			}
			want := int64(0)
			if tc.reembed {
				want = 1
			}
			if got := replayReembedsTotal.Load() - before; got != want {
				t.Fatalf("re-embeds counted: %d, want %d", got, want)
			}
			if got := sys.AbsorbedRecords(); got != 1 {
				t.Fatalf("replica absorbed %d records, want 1", got)
			}
			sys.Inspect(func(emb *embed.Embedding, _ *embed.NegativeSampler) {
				for id := range emb.Ego {
					for _, v := range append(emb.Ego[id][:len(emb.Ego[id]):len(emb.Ego[id])], emb.Ctx[id]...) {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							t.Fatalf("node %d holds non-finite value %v after replay", id, v)
						}
					}
					if len(emb.Ego[id]) != emb.Dim || len(emb.Ctx[id]) != emb.Dim {
						t.Fatalf("node %d rows have length %d/%d, want %d", id, len(emb.Ego[id]), len(emb.Ctx[id]), emb.Dim)
					}
				}
			})
			if !tc.reembed {
				live, err := primary.System("campus")
				if err != nil {
					t.Fatal(err)
				}
				assertSameModel(t, live, sys)
			}
		})
	}
}
