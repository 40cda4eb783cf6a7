package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/simulate"
)

// corpusSpec pins a workload's corpus. The simulator draws every
// building's floor count and floor-plate side from the seed, which would
// let the seed alone swing the total work by tens of percent; here the
// geometry is fixed per building index and the seed drives everything
// else (AP placement, BSSIDs, devices, scans), so runs on different seeds
// measure the same amount of work.
type corpusSpec struct {
	Profile   string
	Floors    []int
	SidesM    []float64
	PerFloor  int
	Extra     int
	TrainFrac float64
	Labels    int
}

// building is one generated building, split into the pools a workload
// draws from: train fits the model (Labeled set on the label budget),
// read is held out for classifications, absorb is the crowd's stream of
// new scans.
type building struct {
	name   string
	floors map[int]bool
	train  []dataset.Record
	read   []dataset.Record
	absorb []dataset.Record
}

// scan is one request payload with its ground truth. The body carries
// only the id and readings: no floor, no label.
type scan struct {
	building string
	floor    int
	body     []byte
	rec      dataset.Record // floor and label cleared
}

func newScan(building string, rec dataset.Record, id string) (scan, error) {
	body, err := json.Marshal(server.ClassifyRequest{ID: id, Readings: rec.Readings})
	if err != nil {
		return scan{}, fmt.Errorf("marshal scan %s: %w", id, err)
	}
	return scan{
		building: building,
		floor:    rec.Floor,
		body:     body,
		rec:      dataset.Record{ID: id, Readings: rec.Readings},
	}, nil
}

// buildingSeed derives building i's simulator seed from the workload seed.
func buildingSeed(seed int64, i int) int64 { return seed*1000 + int64(i) + 1 }

// generate builds every building of the spec from seed.
func generate(spec corpusSpec, seed int64) ([]*building, error) {
	out := make([]*building, len(spec.Floors))
	for i := range spec.Floors {
		bseed := buildingSeed(seed, i)
		var p simulate.Params
		switch spec.Profile {
		case "microsoft-like":
			p = simulate.MicrosoftLike(1, spec.PerFloor+spec.Extra, bseed)
		case "hongkong-like":
			p = simulate.HongKongLike(spec.PerFloor+spec.Extra, bseed)
		default:
			return nil, fmt.Errorf("unknown profile %q", spec.Profile)
		}
		p.Name = fmt.Sprintf("%s-%02d", spec.Profile, i)
		p.FloorsMin, p.FloorsMax = spec.Floors[i], spec.Floors[i]
		p.SideMin, p.SideMax = spec.SidesM[i], spec.SidesM[i]
		c, err := simulate.Generate(p)
		if err != nil {
			return nil, err
		}
		b, err := split(&c.Buildings[0], spec, rand.New(rand.NewSource(bseed)))
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// split divides one building's records floor by floor: of every floor's
// records, the share PerFloor/(PerFloor+Extra) is the campaign (TrainFrac
// of it trains, the rest is held out for reads) and the remainder is the
// absorb stream.
func split(src *dataset.Building, spec corpusSpec, rng *rand.Rand) (*building, error) {
	b := &building{name: src.Name, floors: make(map[int]bool)}
	byFloor := make(map[int][]dataset.Record)
	for _, r := range src.Records {
		byFloor[r.Floor] = append(byFloor[r.Floor], r)
	}
	floors := make([]int, 0, len(byFloor))
	for f := range byFloor {
		floors = append(floors, f)
	}
	sort.Ints(floors)
	for _, f := range floors {
		recs := byFloor[f]
		rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
		base := len(recs) * spec.PerFloor / (spec.PerFloor + spec.Extra)
		nTrain := int(float64(base)*spec.TrainFrac + 0.5)
		if nTrain < 1 || base-nTrain < 1 {
			return nil, fmt.Errorf("building %s floor %d: %d records are too few to split", src.Name, f, len(recs))
		}
		b.floors[f] = true
		b.train = append(b.train, recs[:nTrain]...)
		b.read = append(b.read, recs[nTrain:base]...)
		b.absorb = append(b.absorb, recs[base:]...)
	}
	dataset.SelectLabels(b.train, spec.Labels, rng)
	return b, nil
}

// readPool returns every held-out scan of every building, interleaved
// round-robin across buildings so any prefix spreads over the fleet.
func readPool(bs []*building) ([]scan, error) {
	return interleave(bs, func(b *building) []dataset.Record { return b.read }, "")
}

// absorbPool is readPool over the absorb streams. Ids are prefixed so an
// absorbed scan never shares an id with a read.
func absorbPool(bs []*building) ([]scan, error) {
	return interleave(bs, func(b *building) []dataset.Record { return b.absorb }, "crowd-")
}

func interleave(bs []*building, pick func(*building) []dataset.Record, prefix string) ([]scan, error) {
	var out []scan
	for i := 0; ; i++ {
		added := false
		for _, b := range bs {
			recs := pick(b)
			if i >= len(recs) {
				continue
			}
			s, err := newScan(b.name, recs[i], prefix+recs[i].ID)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
			added = true
		}
		if !added {
			return out, nil
		}
	}
}

// take returns n scans cycling through pool from *next. A scan reused on
// a later lap gets a fresh id, so no two requests share one.
func take(pool []scan, next *int, n int) ([]scan, error) {
	if len(pool) == 0 {
		return nil, fmt.Errorf("empty scan pool")
	}
	out := make([]scan, n)
	for i := range out {
		k := *next
		*next++
		s := pool[k%len(pool)]
		if lap := k / len(pool); lap > 0 {
			var err error
			rec := dataset.Record{Readings: s.rec.Readings, Floor: s.floor}
			if s, err = newScan(s.building, rec, fmt.Sprintf("%s~%d", s.rec.ID, lap)); err != nil {
				return nil, err
			}
		}
		out[i] = s
	}
	return out, nil
}
