// Lifecycle observability instruments: the durable-write throughput,
// the refit machinery (how often models retrain, how long it takes,
// whether swaps land), and per-building staleness — the gauges an
// operator watches to decide whether the refit policy keeps up with the
// crowd's absorb rate.

package lifecycle

import "repro/internal/obs"

var (
	journaledWritesTotal = obs.Default().Counter("grafics_lifecycle_journaled_writes_total",
		"Writes (absorbs, retirements) journaled to the WAL before acknowledgment.")
	replayedTotal = obs.Default().Counter("grafics_lifecycle_wal_replayed_total",
		"Journaled records replayed into restored models at open.")
	replayReembedsTotal = obs.Default().Counter("grafics_lifecycle_replay_reembeds_total",
		"Journaled absorbs replayed by re-running the online embedding because their rows could not be applied (none, another fit, wrong length, non-finite).")

	refitsTotal = obs.Default().CounterVec("grafics_lifecycle_refits_total",
		"Completed background refits by result (ok, err, canceled).", "result")
	refitSeconds = obs.Default().Histogram("grafics_lifecycle_refit_seconds",
		"Wall time of one background refit: train, drain, hot swap, snapshot.", obs.TimeBuckets)
	refitsRunning = obs.Default().Gauge("grafics_lifecycle_refits_running",
		"Background refits in flight.")
	hotSwapsTotal = obs.Default().Counter("grafics_lifecycle_hot_swaps_total",
		"Models atomically replaced by a refit.")

	snapshotsTotal = obs.Default().Counter("grafics_lifecycle_snapshots_total",
		"Fleet snapshots written (each truncates the WAL).")
	lastSnapshotUnix = obs.Default().Gauge("grafics_lifecycle_last_snapshot_timestamp_seconds",
		"Unix time of the most recent snapshot; 0 until one is written.")

	absorbedSinceFit = obs.Default().GaugeVec("grafics_lifecycle_absorbed_since_fit",
		"Scans absorbed into a building's graph since its model was last fitted.", "building")

	degradedGauge = obs.Default().Gauge("grafics_lifecycle_degraded",
		"1 while the journal is sick and absorbs are refused (degraded read-only mode).")
	degradedRejectsTotal = obs.Default().Counter("grafics_lifecycle_degraded_rejects_total",
		"Absorbs refused with ErrDegraded while in degraded read-only mode.")
)
