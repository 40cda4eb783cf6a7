package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dataset"
)

// fuzzRecord builds the i-th record of the deterministic append sequence
// the replay fuzzers mutate. The IDs make prefix checks unambiguous. Odd
// records carry learned rows like a journaled absorb; even ones have the
// older rowless shape, so a log mixes both.
func fuzzRecord(i int) Record {
	r := Record{
		Building: fmt.Sprintf("b%d", i%3),
		Scan: dataset.Record{
			ID: fmt.Sprintf("scan-%04d", i),
			Readings: []dataset.Reading{
				{MAC: fmt.Sprintf("aa:bb:cc:dd:ee:%02x", i), RSS: -40 - float64(i)},
				{MAC: "aa:bb:cc:dd:ee:ff", RSS: -72.5},
			},
			Floor: i % 4,
		},
	}
	if i%2 == 1 {
		r.Ego = make([]float64, 8)
		r.Ctx = make([]float64, 8)
		for d := range r.Ego {
			r.Ego[d] = 0.01 * float64(i*8+d)
			r.Ctx[d] = -0.5 / float64(i+d)
		}
		r.Seed = int64(1000 + i)
		r.Model = 0x9e3779b97f4a7c15 ^ uint64(i)
	}
	return r
}

// checkDelivered fails unless r is exactly the fuzzRecord its ID names:
// a frame that passed its checksum must deliver the record as appended,
// rows and all.
func checkDelivered(t *testing.T, r Record) {
	t.Helper()
	var i int
	if _, err := fmt.Sscanf(r.Scan.ID, "scan-%04d", &i); err != nil {
		t.Fatalf("delivered record with unexpected ID %q", r.Scan.ID)
	}
	if want := fuzzRecord(i); !reflect.DeepEqual(r, want) {
		t.Fatalf("record %d delivered as %+v, appended as %+v", i, r, want)
	}
}

// writeFuzzLog appends n records with a tiny rotation threshold so the
// log spans several segments, then closes it. Returns the segment paths
// in replay order.
func writeFuzzLog(t *testing.T, dir string, n int) []string {
	t.Helper()
	l, err := Open(Options{Dir: dir, SegmentMaxBytes: 256, SyncEvery: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := l.Append(fuzzRecord(i)); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := segments(dir)
	if err != nil {
		t.Fatalf("segments: %v", err)
	}
	if len(segs) < 2 {
		t.Fatalf("fuzz log spans %d segment(s), want >= 2; shrink SegmentMaxBytes", len(segs))
	}
	paths := make([]string, len(segs))
	for i, s := range segs {
		paths[i] = segPath(dir, s)
	}
	return paths
}

// segmentIDs replays each pristine segment on its own to learn which
// scan IDs it holds (every segment of a cleanly closed log is sealed and
// replays standalone).
func segmentIDs(t *testing.T, paths []string) [][]string {
	t.Helper()
	out := make([][]string, len(paths))
	for i, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("read segment: %v", err)
		}
		tmp := t.TempDir()
		if err := os.WriteFile(filepath.Join(tmp, segPrefix+"00000000"+segSuffix), raw, 0o644); err != nil {
			t.Fatalf("copy segment: %v", err)
		}
		if _, err := Replay(tmp, func(r Record) error {
			out[i] = append(out[i], r.Scan.ID)
			return nil
		}); err != nil {
			t.Fatalf("pristine segment %d does not replay: %v", i, err)
		}
	}
	return out
}

// FuzzWALReplay damages a real multi-segment log the way disks and
// crashes do — a flipped byte or a truncation at an arbitrary offset of
// an arbitrary segment — and checks the recovery contract: no panic, no
// error other than ErrCorrupt, and delivery is exact. On ErrCorrupt the
// delivered records are a prefix of the append order (replay aborts at
// the bad frame); on a clean stop the damaged segment contributes a
// prefix of its own records (a crash-tail stop) while every other
// segment is delivered in full, in order.
func FuzzWALReplay(f *testing.F) {
	f.Add(uint32(0), uint32(0), byte(0), false)     // untouched log
	f.Add(uint32(0), uint32(10), byte(0xff), false) // flip inside the first frame
	f.Add(uint32(1), uint32(5), byte(0), true)      // truncate a later segment mid-frame
	f.Add(uint32(0), uint32(0), byte(0x80), false)  // corrupt a length prefix
	const appended = 12
	f.Fuzz(func(t *testing.T, seg, offset uint32, xor byte, truncate bool) {
		dir := t.TempDir()
		paths := writeFuzzLog(t, dir, appended)
		perSeg := segmentIDs(t, paths)
		k := int(seg) % len(paths)
		path := paths[k]
		mutated := false
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read segment: %v", err)
		}
		if int(offset) < len(raw) {
			if truncate {
				raw = raw[:offset]
				mutated = true
			} else if xor != 0 {
				raw[offset] ^= xor
				mutated = true
			}
		}
		if mutated {
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatalf("write mutated segment: %v", err)
			}
		}

		var got []string
		n, err := Replay(dir, func(r Record) error {
			checkDelivered(t, r)
			got = append(got, r.Scan.ID)
			return nil
		})
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Replay error %v, want nil or ErrCorrupt", err)
		}
		if n != len(got) {
			t.Fatalf("Replay reported %d records, delivered %d", n, len(got))
		}

		var all []string
		for _, ids := range perSeg {
			all = append(all, ids...)
		}
		if !mutated {
			if err != nil || n != appended {
				t.Fatalf("untouched log: Replay = %d, %v; want %d, nil", n, err, appended)
			}
		}
		if err != nil {
			// Aborted at the bad frame: what came before is a global prefix.
			if len(got) > len(all) {
				t.Fatalf("delivered %d records, appended %d", len(got), len(all))
			}
			for i, id := range got {
				if id != all[i] {
					t.Fatalf("record %d = %s, want %s (not a prefix of the append order)", i, id, all[i])
				}
			}
			return
		}
		// Clean stop: segments before and after the damaged one are whole;
		// the damaged one contributes a prefix of its own records.
		var pre, post []string
		for i, ids := range perSeg {
			if i < k {
				pre = append(pre, ids...)
			} else if i > k {
				post = append(post, ids...)
			}
		}
		if len(got) < len(pre)+len(post) || len(got) > len(all) {
			t.Fatalf("clean replay delivered %d records; want between %d and %d", len(got), len(pre)+len(post), len(all))
		}
		for i, id := range pre {
			if got[i] != id {
				t.Fatalf("pre-damage record %d = %s, want %s", i, got[i], id)
			}
		}
		for i, id := range post {
			if g := got[len(got)-len(post)+i]; g != id {
				t.Fatalf("post-damage record %d = %s, want %s", i, g, id)
			}
		}
		mid := got[len(pre) : len(got)-len(post)]
		for i, id := range mid {
			if id != perSeg[k][i] {
				t.Fatalf("damaged-segment record %d = %s, want %s (not a prefix of its segment)", i, id, perSeg[k][i])
			}
		}
	})
}

// FuzzFrameDecode feeds arbitrary bytes to Replay as a lone (and
// therefore final) segment. Whatever the framing layer makes of the
// noise, the contract holds: no panic, no error other than ErrCorrupt
// (a checksum-valid frame whose gob payload is gibberish), and any
// delivered record came from a frame that passed its checksum.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x00")) // empty payload, CRC matches, gob fails
	f.Add([]byte("\x04\x00\x00"))                     // torn header
	f.Add([]byte("\xff\xff\xff\xff\x00\x00\x00\x00")) // implausible length
	// Fully valid frames, rowless and row-carrying, so the fuzzer starts
	// with seeds that reach the gob decoder with a well-formed payload.
	for i := 0; i < 2; i++ {
		dir := f.TempDir()
		l, err := Open(Options{Dir: dir, SyncEvery: -1})
		if err != nil {
			f.Fatalf("Open: %v", err)
		}
		if err := l.Append(fuzzRecord(i)); err != nil {
			f.Fatalf("Append: %v", err)
		}
		if err := l.Close(); err != nil {
			f.Fatalf("Close: %v", err)
		}
		raw, err := os.ReadFile(segPath(dir, 0))
		if err != nil {
			f.Fatalf("read seed segment: %v", err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segPrefix+"00000000"+segSuffix), data, 0o644); err != nil {
			t.Fatalf("write segment: %v", err)
		}
		n, err := Replay(dir, func(Record) error { return nil })
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Replay error %v, want nil or ErrCorrupt", err)
		}
		if n < 0 || (len(data) < frameHeader && n != 0) {
			t.Fatalf("Replay delivered %d records from %d bytes", n, len(data))
		}
	})
}
