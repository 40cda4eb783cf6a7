// Package simulate generates synthetic crowdsourced RF-fingerprint corpora
// with the statistical properties of the two datasets used in the GRAFICS
// paper (Microsoft's Kaggle indoor-location corpus and the authors' Hong
// Kong collection). Real traces are not redistributable, so this package is
// the documented substitution: a log-distance path-loss
// radio model with per-floor attenuation, lognormal shadowing, device
// heterogeneity, and scan-size caps. These mechanisms reproduce the two
// properties the paper shows make the problem hard — small per-record MAC
// counts and low pairwise overlap (Fig. 1) — while floor attenuation
// provides the physical separability the algorithms exploit.
package simulate

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/dataset"
	"repro/internal/sampling"
)

// FloorHeightM is the assumed inter-floor height in meters.
const FloorHeightM = 3.5

// Params controls corpus generation. All distances are meters and all
// signal quantities dBm/dB.
type Params struct {
	// Name labels the generated corpus.
	Name string
	// NumBuildings is the number of buildings to generate.
	NumBuildings int
	// FloorsMin and FloorsMax bound the per-building floor count
	// (inclusive).
	FloorsMin, FloorsMax int
	// SideMin and SideMax bound the square floor-plate side length.
	SideMin, SideMax float64
	// APDensityPer100m2 is the expected number of physical APs per 100 m²
	// of floor area.
	APDensityPer100m2 float64
	// MACsPerAPMin and MACsPerAPMax bound how many BSSIDs each physical
	// AP advertises (multi-SSID APs are common in malls and offices).
	MACsPerAPMin, MACsPerAPMax int
	// RecordsPerFloor is the number of crowdsourced scans per floor.
	RecordsPerFloor int

	// TxPowerDBm is the AP transmit power.
	TxPowerDBm float64
	// RefLossDB is the path loss at the 1 m reference distance.
	RefLossDB float64
	// PathLossExp is the log-distance path-loss exponent (2 free space,
	// 3-4 cluttered indoor).
	PathLossExp float64
	// FloorAttenuationDB is the extra attenuation per concrete floor
	// crossed (the "floor attenuation factor" of multi-wall multi-floor
	// models; ~13-20 dB for concrete slabs).
	FloorAttenuationDB float64
	// ShadowingSigmaDB is the lognormal shadowing standard deviation.
	ShadowingSigmaDB float64
	// ReadingNoiseDB is per-scan measurement noise on each reading.
	ReadingNoiseDB float64

	// DeviceOffsetSigmaDB is the std-dev of the per-device constant RSS
	// bias (device heterogeneity).
	DeviceOffsetSigmaDB float64
	// ScanLimitMin and ScanLimitMax bound how many MACs a device reports
	// per scan (low-end devices truncate scans).
	ScanLimitMin, ScanLimitMax int
	// SensitivityMinDBm and SensitivityMaxDBm bound the weakest RSS a
	// device can detect; each scan draws a uniform threshold from this
	// range. The spread models the "limited scanning capability of
	// low-end devices" the paper blames for misleading missing values
	// (§II): a MAC absent from one record may be perfectly audible to a
	// better radio on the same spot.
	SensitivityMinDBm, SensitivityMaxDBm float64

	// TrajectoryLen, when > 1, groups scans into crowdsourced walks of
	// that many scans: a walker enters at a random point, takes ~5 m
	// steps, and contributes consecutive scans with the same device
	// (offset, sensitivity, scan cap) and the same collection time. This
	// mirrors how collection apps actually gather data and produces the
	// spatial correlation that trajectory-based methods (e.g. the RNN of
	// [13] in the paper) rely on. 0 or 1 means independent scans.
	TrajectoryLen int

	// APChurnFraction is the share of APs that are installed or removed
	// during the crowdsourcing campaign (§III-A of the paper: "APs could
	// be added and removed over time"). Each record carries an implicit
	// collection time in [0,1); a churned AP is only audible during a
	// random sub-interval, so same-floor records from different epochs
	// share fewer MACs. This temporal heterogeneity is what breaks
	// fixed-vocabulary matrix representations while the bipartite graph
	// absorbs it through multi-hop connectivity.
	APChurnFraction float64

	// Seed roots all randomness; a fixed seed reproduces the corpus
	// exactly.
	Seed int64
}

// Validate reports the first invalid field, if any.
func (p *Params) Validate() error {
	switch {
	case p.NumBuildings <= 0:
		return fmt.Errorf("simulate: NumBuildings %d must be positive", p.NumBuildings)
	case p.FloorsMin < 1 || p.FloorsMax < p.FloorsMin:
		return fmt.Errorf("simulate: floor range [%d,%d] invalid", p.FloorsMin, p.FloorsMax)
	case p.SideMin <= 0 || p.SideMax < p.SideMin:
		return fmt.Errorf("simulate: side range [%v,%v] invalid", p.SideMin, p.SideMax)
	case p.APDensityPer100m2 <= 0:
		return fmt.Errorf("simulate: AP density %v must be positive", p.APDensityPer100m2)
	case p.MACsPerAPMin < 1 || p.MACsPerAPMax < p.MACsPerAPMin:
		return fmt.Errorf("simulate: MACs-per-AP range [%d,%d] invalid", p.MACsPerAPMin, p.MACsPerAPMax)
	case p.RecordsPerFloor <= 0:
		return fmt.Errorf("simulate: RecordsPerFloor %d must be positive", p.RecordsPerFloor)
	case p.ScanLimitMin < 1 || p.ScanLimitMax < p.ScanLimitMin:
		return fmt.Errorf("simulate: scan limit range [%d,%d] invalid", p.ScanLimitMin, p.ScanLimitMax)
	case p.PathLossExp <= 0:
		return fmt.Errorf("simulate: path loss exponent %v must be positive", p.PathLossExp)
	case p.SensitivityMaxDBm < p.SensitivityMinDBm:
		return fmt.Errorf("simulate: sensitivity range [%v,%v] invalid", p.SensitivityMinDBm, p.SensitivityMaxDBm)
	case p.APChurnFraction < 0 || p.APChurnFraction > 1:
		return fmt.Errorf("simulate: AP churn fraction %v outside [0,1]", p.APChurnFraction)
	case p.TrajectoryLen < 0:
		return fmt.Errorf("simulate: trajectory length %d must be non-negative", p.TrajectoryLen)
	}
	return nil
}

// MicrosoftLike returns parameters that mimic the Kaggle corpus: many
// buildings of 2-12 floors with moderate area and around a thousand scans
// per floor. numBuildings and recordsPerFloor are exposed because the
// experiment harness runs on scaled-down corpora while cmd/datagen can emit
// the full 204-building corpus.
func MicrosoftLike(numBuildings, recordsPerFloor int, seed int64) Params {
	return Params{
		Name:                "microsoft-like",
		NumBuildings:        numBuildings,
		FloorsMin:           2,
		FloorsMax:           12,
		SideMin:             40,
		SideMax:             90,
		APDensityPer100m2:   0.8,
		MACsPerAPMin:        1,
		MACsPerAPMax:        3,
		RecordsPerFloor:     recordsPerFloor,
		TxPowerDBm:          -10,
		RefLossDB:           30,
		PathLossExp:         3.0,
		FloorAttenuationDB:  16,
		ShadowingSigmaDB:    8,
		ReadingNoiseDB:      5,
		DeviceOffsetSigmaDB: 3,
		ScanLimitMin:        8,
		ScanLimitMax:        30,
		SensitivityMinDBm:   -95,
		SensitivityMaxDBm:   -80,
		APChurnFraction:     0,
		Seed:                seed,
	}
}

// HongKongLike returns parameters that mimic the authors' five-facility
// Hong Kong collection: few but large, AP-dense buildings (office towers,
// a hospital, two malls).
func HongKongLike(recordsPerFloor int, seed int64) Params {
	return Params{
		Name:                "hongkong-like",
		NumBuildings:        5,
		FloorsMin:           3,
		FloorsMax:           10,
		SideMin:             60,
		SideMax:             120,
		APDensityPer100m2:   1.2,
		MACsPerAPMin:        1,
		MACsPerAPMax:        3,
		RecordsPerFloor:     recordsPerFloor,
		TxPowerDBm:          -10,
		RefLossDB:           30,
		PathLossExp:         3.2,
		FloorAttenuationDB:  15,
		ShadowingSigmaDB:    8,
		ReadingNoiseDB:      5,
		DeviceOffsetSigmaDB: 3,
		ScanLimitMin:        8,
		ScanLimitMax:        30,
		SensitivityMinDBm:   -95,
		SensitivityMaxDBm:   -80,
		APChurnFraction:     0,
		Seed:                seed,
	}
}

// Campus3F returns the small three-story campus building used by the
// paper's visualization figures (Fig. 6-8).
func Campus3F(recordsPerFloor int, seed int64) Params {
	p := MicrosoftLike(1, recordsPerFloor, seed)
	p.Name = "campus-3f"
	p.FloorsMin = 3
	p.FloorsMax = 3
	p.SideMin = 50
	p.SideMax = 50
	return p
}

// accessPoint is one physical AP: a position, the BSSIDs it beacons, and
// the sub-interval of the crowdsourcing campaign during which it was
// installed (activeFrom = 0, activeTo = 1 for stable APs).
type accessPoint struct {
	x, y                 float64
	floor                int
	macs                 []string
	activeFrom, activeTo float64
}

// rssAt returns the noiseless RSS of ap observed at (x, y, floor):
// log-distance path loss plus the per-floor attenuation factor.
func (p *Params) rssAt(ap *accessPoint, x, y float64, floor int) float64 {
	dz := float64(ap.floor-floor) * FloorHeightM
	dx := ap.x - x
	dy := ap.y - y
	d := math.Sqrt(dx*dx + dy*dy + dz*dz)
	if d < 1 {
		d = 1
	}
	floorDiff := ap.floor - floor
	if floorDiff < 0 {
		floorDiff = -floorDiff
	}
	return p.TxPowerDBm - p.RefLossDB - 10*p.PathLossExp*math.Log10(d) - p.FloorAttenuationDB*float64(floorDiff)
}

// randomMAC draws a unique colon-separated 48-bit MAC address.
func randomMAC(rng *rand.Rand, used map[string]struct{}) string {
	for {
		mac := fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x",
			rng.Intn(256), rng.Intn(256), rng.Intn(256),
			rng.Intn(256), rng.Intn(256), rng.Intn(256))
		if _, dup := used[mac]; dup {
			continue
		}
		used[mac] = struct{}{}
		return mac
	}
}

// Generate produces a corpus under the given parameters.
func Generate(p Params) (*dataset.Corpus, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	seeder := sampling.NewSeeder(p.Seed)
	corpus := &dataset.Corpus{Name: p.Name}
	for b := 0; b < p.NumBuildings; b++ {
		rng := seeder.NextRand()
		bld, err := generateBuilding(&p, b, rng)
		if err != nil {
			return nil, fmt.Errorf("simulate: building %d: %w", b, err)
		}
		corpus.Buildings = append(corpus.Buildings, *bld)
	}
	return corpus, nil
}

func generateBuilding(p *Params, index int, rng *rand.Rand) (*dataset.Building, error) {
	floors := p.FloorsMin
	if p.FloorsMax > p.FloorsMin {
		floors += rng.Intn(p.FloorsMax - p.FloorsMin + 1)
	}
	side := p.SideMin + rng.Float64()*(p.SideMax-p.SideMin)
	area := side * side
	name := fmt.Sprintf("%s-b%03d", p.Name, index)

	// Place APs floor by floor. BSSIDs are random hex like real MAC
	// addresses: a sorted vocabulary of them carries no floor
	// information, unlike sequential names which would hand matrix-based
	// methods an artificial floor-contiguous column layout.
	apsPerFloor := int(math.Max(1, math.Round(area/100*p.APDensityPer100m2)))
	var aps []accessPoint
	usedMACs := make(map[string]struct{})
	for f := 0; f < floors; f++ {
		for a := 0; a < apsPerFloor; a++ {
			ap := accessPoint{
				x:        rng.Float64() * side,
				y:        rng.Float64() * side,
				floor:    f,
				activeTo: 1,
			}
			if rng.Float64() < p.APChurnFraction {
				// Installed or removed mid-campaign: active for a
				// random window covering 30-70% of the campaign.
				span := 0.3 + rng.Float64()*0.4
				start := rng.Float64() * (1 - span)
				ap.activeFrom = start
				ap.activeTo = start + span
			}
			nm := p.MACsPerAPMin
			if p.MACsPerAPMax > p.MACsPerAPMin {
				nm += rng.Intn(p.MACsPerAPMax - p.MACsPerAPMin + 1)
			}
			for m := 0; m < nm; m++ {
				ap.macs = append(ap.macs, randomMAC(rng, usedMACs))
			}
			aps = append(aps, ap)
		}
	}

	bld := &dataset.Building{Name: name, Floors: floors, AreaM2: area}
	recID := 0
	type candidate struct {
		mac string
		rss float64
	}
	// device holds the per-walker sampling state shared across a
	// trajectory's scans.
	type device struct {
		offset      float64
		sensitivity float64
		scanLimit   int
		when        float64
	}
	newDevice := func() device {
		d := device{
			offset:      rng.NormFloat64() * p.DeviceOffsetSigmaDB,
			sensitivity: p.SensitivityMinDBm + rng.Float64()*(p.SensitivityMaxDBm-p.SensitivityMinDBm),
			scanLimit:   p.ScanLimitMin,
			when:        rng.Float64(), // collection time within the campaign
		}
		if p.ScanLimitMax > p.ScanLimitMin {
			d.scanLimit += rng.Intn(p.ScanLimitMax - p.ScanLimitMin + 1)
		}
		return d
	}
	// scanAt synthesizes one scan at (x, y) on floor f with device d,
	// returning false on a dead spot.
	scanAt := func(x, y float64, f int, d device) (dataset.Record, bool) {
		var cands []candidate
		for i := range aps {
			ap := &aps[i]
			if d.when < ap.activeFrom || d.when > ap.activeTo {
				continue // AP not installed at collection time
			}
			base := p.rssAt(ap, x, y, f)
			// One shadowing draw per AP-position pair, shared by the
			// AP's BSSIDs (they share the radio).
			shadow := rng.NormFloat64() * p.ShadowingSigmaDB
			for _, mac := range ap.macs {
				rss := base + shadow + d.offset + rng.NormFloat64()*p.ReadingNoiseDB
				if rss < d.sensitivity {
					continue
				}
				if rss > -20 {
					rss = -20
				}
				cands = append(cands, candidate{mac: mac, rss: rss})
			}
		}
		if len(cands) == 0 {
			return dataset.Record{}, false
		}
		// Devices report the strongest APs first and truncate.
		sort.Slice(cands, func(i, j int) bool { return cands[i].rss > cands[j].rss })
		if len(cands) > d.scanLimit {
			cands = cands[:d.scanLimit]
		}
		rec := dataset.Record{
			ID:    fmt.Sprintf("%s-r%06d", name, recID),
			Floor: f,
		}
		recID++
		for _, c := range cands {
			rec.Readings = append(rec.Readings, dataset.Reading{MAC: c.mac, RSS: math.Round(c.rss)})
		}
		return rec, true
	}
	const stepM = 5.0
	clamp := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v > side {
			return side
		}
		return v
	}
	for f := 0; f < floors; f++ {
		emitted := 0
		for emitted < p.RecordsPerFloor {
			if p.TrajectoryLen > 1 {
				// One walker contributes a run of correlated scans.
				d := newDevice()
				x := rng.Float64() * side
				y := rng.Float64() * side
				steps := p.TrajectoryLen
				if left := p.RecordsPerFloor - emitted; steps > left {
					steps = left
				}
				for t := 0; t < steps; t++ {
					if rec, ok := scanAt(x, y, f, d); ok {
						bld.Records = append(bld.Records, rec)
					}
					emitted++
					angle := rng.Float64() * 2 * math.Pi
					x = clamp(x + stepM*math.Cos(angle))
					y = clamp(y + stepM*math.Sin(angle))
				}
				continue
			}
			if rec, ok := scanAt(rng.Float64()*side, rng.Float64()*side, f, newDevice()); ok {
				bld.Records = append(bld.Records, rec)
			}
			emitted++
		}
	}
	if len(bld.Records) == 0 {
		return nil, fmt.Errorf("no records generated (side=%v floors=%d)", side, floors)
	}
	return bld, nil
}
